"""Tanh-sinh (double exponential) quadrature at configurable precision.

Handles inverse-square-root endpoint behaviour, which is exactly what the
action integrands produce at the turning points.  Nodes and weights are
cached per (precision, level); abscissae are stored as distances from the
nearest endpoint so that the double-exponential clustering near the ends
does not lose digits.  A level holds only the nodes no coarser level
has, so each node is computed once.  Tables are raw mpf tuples (`x._mpf_`)
at `prec + 20` bits, each node built from one exponential of a large
argument: e^t steps from node to node by one fixed-point product.  The
abscissae, the integrand and the level sums run in fixed point on plain
integers: a value x is the integer x 2^F, with F = `fraction_bits(prec,
a, b)` fraction bits, and products are exact.
"""

from __future__ import annotations

from itertools import count
from typing import Callable

import mpmath as mp
from mpmath.libmp import (fone, from_man_exp, ftwo, mpf_add, mpf_div, mpf_exp,
                          mpf_lt, mpf_mul, mpf_pi, mpf_shift, mpf_sub,
                          round_nearest as RND, to_fixed)

_node_cache: dict[tuple[int, int], list[tuple[tuple, tuple]]] = {}
MAX_LEVEL = 12          # the finest level `tanh_sinh` tries


def _nodes(prec: int, level: int):
    """Nodes for step h = 2^-level as (distance-from-endpoint, weight) pairs.

    Level 0 holds t = k h for k = 1, 2, ...; a level >= 1 only the odd k,
    entry i at k = 2i + 1.  The node near the right endpoint of [-1, 1]
    sits at 1 - d, its mirror at -1 + d.  The weight includes the step
    factor h.  A level ends at the first k, odd or even, where even a 1/sqrt
    endpoint singularity could no longer contribute at precision `prec`,
    w^2 < d 2^(-2 (prec + 15)); an even k = 2j tests node j of the level
    below, its weight halved.

    Each node costs one exponential of a large argument.  e^t steps from
    node to node by one product in fixed point with ep = `prec + 40`
    fraction bits, and cosh t and sinh t come from it and its reciprocal.
    With u = (pi/2) sinh t and X = e^(-2u), computed at ep bits so that the
    large argument 2u keeps `prec + 20`: d = 1 - tanh u = 2X/(1 + X), and
    1/cosh^2 u = d (2 - d), so w = h (pi/2) cosh t d (2 - d).  Both
    entries are raw mpf tuples at `prec + 20` bits.
    """
    if (prec, level) in _node_cache:
        return _node_cache[prec, level]
    wp, ep = prec + 20, prec + 40
    pi = to_fixed(mpf_pi(ep + 4, RND), ep)
    exp_t = to_fixed(mpf_exp(mpf_shift(fone, -level), ep + 4, RND), ep)     # e^h
    step = exp_t if level == 0 else exp_t * exp_t >> ep                     # e^(2h)
    out = []
    for k in count(1):
        if level and k % 2 == 0:
            d, w = _entry(prec, level, k)         # a coarser level's node
        else:
            exp_neg = (1 << 2 * ep) // exp_t                                 # e^-t
            x = mpf_exp(from_man_exp(pi * (exp_neg - exp_t), -2 * ep - 1), ep, RND)
            d = mpf_div(mpf_shift(x, 1), mpf_add(fone, x, ep, RND), wp, RND)
            w = mpf_mul(from_man_exp(pi * (exp_t + exp_neg), -2 * ep - 2 - level),
                        mpf_mul(d, mpf_sub(ftwo, d, ep, RND), ep, RND), wp, RND)
            out.append((d, w))
            exp_t = exp_t * step >> ep
        if mpf_lt(mpf_mul(w, w), mpf_shift(d, -2 * (prec + 15))):
            break
    _node_cache[prec, level] = out
    return out


def _entry(prec: int, level: int, k: int) -> tuple:
    """(d, w) at t = k 2^-level, from the table that holds it."""
    if level == 0:
        return _nodes(prec, 0)[k - 1]
    if k % 2:
        return _nodes(prec, level)[k // 2]
    d, w = _entry(prec, level - 1, k // 2)
    return d, mpf_shift(w, -1)                    # exact


def fraction_bits(prec: int, a, b) -> int:
    """Fraction bits F of the fixed-point numbers `tanh_sinh` hands to f.

    prec + 40, plus two bits for each halving of the width |b - a| below
    1: where the interval is narrow, as near h = -2, the integrand's terms
    are of the width's size and its square root halves their bits.
    """
    width = mpf_sub(mp.mpf(b)._mpf_, mp.mpf(a)._mpf_)      # exact
    return prec + 40 + 2 * max(0, -(width[2] + width[3]))   # exp + bc


def tanh_sinh(f: Callable[[int], int], a, b, prec: int) -> tuple:
    """Integrate f over [a, b]; returns (value, error_estimate, converged).

    f runs in fixed point with F = `fraction_bits(prec, a, b)`: it takes
    the integer x 2^F of an abscissa strictly inside (a, b), or an end
    that the abscissa rounds to, and returns the integer f(x) 2^F.
    Integrable endpoint singularities up to 1/sqrt converge.  The level
    sums are exact integers; each level's value is rounded to `prec + 20`
    bits.  The step is halved, from level 3 on, until two successive
    refinements agree to relative 2^(10-prec) and the last relative
    difference d_L still falls doubly exponentially, d_L <= d_(L-1)^1.25,
    or sits at the noise floor 2^(6-prec).  Differences that shrink only
    by a fixed factor per level can meet the tolerance while the error is
    a hundred times larger; they do not count.  (The exponent is below 2
    because near the critical value the descent is still pre-asymptotic,
    about 1.4, when it reaches the tolerance.  The floor lies above the
    plateau of rounding noise that differences can reach there.)  Value
    and error estimate are mpf, and `converged` is False when `MAX_LEVEL`
    was reached first.
    """
    wp = prec + 20
    with mp.workprec(wp):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return mp.mpf(0), mp.mpf(0), True
        frac = fraction_bits(prec, a, b)
        lo, hi = to_fixed(a._mpf_, frac), to_fixed(b._mpf_, frac)
        width = hi - lo
        tol = mp.mpf(2) ** (10 - prec)
        floor = mp.mpf(2) ** (6 - prec)           # above the noise plateau
        total = 0                  # level sum times 2^level, at scale 2^(2 frac)
        value = mp.mpf(0)
        for level in range(MAX_LEVEL + 1):
            # level 0 is the trapezoid with h = 1, its t = 0 node of weight pi/2
            add = (to_fixed(mpf_pi(wp, RND), frac - 1) * f((lo + hi) >> 1)
                   if level == 0 else 0)
            for d, w in _nodes(prec, level):
                x = width * to_fixed(d, frac) >> (frac + 1)    # half d
                add += to_fixed(w, frac) * (f(lo + x) + f(hi - x))
            total += add << level
            # the level sum times half the width, 2^-(level + 1 + 3 frac)
            new_value = mp.make_mpf(from_man_exp(total * width,
                                                 -(level + 1 + 3 * frac), wp, RND))
            err = abs(new_value - value)
            value = new_value
            rel = err / (1 + abs(value))
            if level >= 3 and rel <= tol and (rel <= last ** 1.25 or rel <= floor):
                return value, err, True
            last = rel                            # previous relative difference
        return value, err, False
