"""Tanh-sinh (double exponential) quadrature at configurable precision.

Handles inverse-square-root endpoint behaviour, which is exactly what the
action integrands produce at the turning points.  Nodes and weights are
cached per (precision, level); abscissae are stored as distances from the
nearest endpoint so that the double-exponential clustering near the ends
does not lose digits.  A level holds only the nodes no coarser level
has, so each node is computed once.  Tables and sums run on raw mpf tuples
(`x._mpf_`) through the correctly rounded `mpmath.libmp` operations that
mpf's operators call, at `prec + 20` bits rounded to nearest: bit for bit
the mpf formulas, without the operator wrappers.
"""

from __future__ import annotations

from itertools import count
from typing import Callable

import mpmath as mp
from mpmath.libmp import (fone, from_int, ftwo, fzero, mpf_add, mpf_cosh,
                          mpf_cosh_sinh, mpf_div, mpf_exp, mpf_lt, mpf_mul,
                          mpf_pi, mpf_shift, mpf_sqrt, mpf_sub,
                          round_nearest as RND)

_node_cache: dict[tuple[int, int], list[tuple[tuple, tuple]]] = {}
MAX_LEVEL = 12          # the finest level `tanh_sinh` tries


def _nodes(prec: int, level: int):
    """Nodes for step h = 2^-level as (distance-from-endpoint, weight) pairs.

    Level 0 holds t = k h for k = 1, 2, ...; a level >= 1 only the odd k,
    entry i at k = 2i + 1.  The node near the right endpoint of [-1, 1]
    sits at 1 - d, its mirror at -1 + d.  The weight includes the step
    factor h.  A level ends at the first k, odd or even, where even a 1/sqrt
    endpoint singularity could no longer contribute at precision `prec`;
    an even k = 2j tests node j of the level below, its weight halved.
    Both entries are raw mpf tuples at `prec + 20` bits.
    """
    if (prec, level) in _node_cache:
        return _node_cache[prec, level]
    wp = prec + 20
    pi_half = mpf_shift(mpf_pi(wp, RND), -1)
    out = []
    for k in count(1):
        if level and k % 2 == 0:
            d, w = _entry(prec, level, k)         # a coarser level's node
        else:
            t = mpf_shift(from_int(k), -level)    # k h, exact
            cosh_t, sinh_t = mpf_cosh_sinh(t, wp, RND)
            u = mpf_mul(pi_half, sinh_t, wp, RND)
            exp_2u = mpf_exp(mpf_shift(u, 1), wp, RND)
            d = mpf_div(ftwo, mpf_add(fone, exp_2u, wp, RND), wp, RND)   # 1 - tanh(u)
            cosh_u = mpf_cosh(u, wp, RND)
            w = mpf_div(mpf_mul(mpf_shift(pi_half, -level), cosh_t, wp, RND),  # h pi/2 cosh t
                        mpf_mul(cosh_u, cosh_u, wp, RND), wp, RND)
            out.append((d, w))
        if mpf_lt(w, mpf_shift(mpf_sqrt(d, wp, RND), -(prec + 15))):
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


def tanh_sinh(f: Callable, a, b, prec: int) -> tuple:
    """Integrate f over [a, b]; returns (value, error_estimate, converged).

    f takes and returns an mpf and is evaluated strictly inside (a, b);
    integrable endpoint singularities up to 1/sqrt converge at full
    accuracy.  Abscissae and level sums are formed on raw mpf tuples,
    bit-identical to the mpf form.  The step is halved, from level 3 on,
    until two successive refinements agree to relative 2^(10-prec) and the
    last relative difference d_L still falls doubly exponentially,
    d_L <= d_(L-1)^1.25, or sits at the noise floor 2^(6-prec).
    Differences that shrink by a fixed factor per level, as on the j2 = 0
    axis of the action integrand, can meet the tolerance while the error
    is a hundred times larger; they do not count.  (The exponent is below
    2 because near the critical value the descent is still
    pre-asymptotic, about 1.4, when it reaches the tolerance.  The floor
    lies above the plateau of rounding noise that differences reach there,
    up to about 2^(5.4-prec), and below the 2^(6.9-prec) that the axis
    differences come down to at (0.5, 0) and 53 bits.)
    Value and error estimate are mpf, and `converged` is False when
    `MAX_LEVEL` was reached first.
    """
    wp = prec + 20
    with mp.workprec(wp):
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return mp.mpf(0), mp.mpf(0), True
        half, mid = (b - a) / 2, (a + b) / 2
        tol = mp.mpf(2) ** (10 - prec)
        floor = mp.mpf(2) ** (6 - prec)           # above the noise plateau
        running = value = mp.mpf(0)
        for level in range(MAX_LEVEL + 1):
            # level 0 is the trapezoid with h = 1, its t = 0 node of weight pi/2
            add = (mp.pi / 2 * f(mid))._mpf_ if level == 0 else fzero
            for d, w in _nodes(prec, level):
                x = mpf_mul(half._mpf_, d, wp, RND)
                fa = f(mp.make_mpf(mpf_add(a._mpf_, x, wp, RND)))._mpf_
                fb = f(mp.make_mpf(mpf_sub(b._mpf_, x, wp, RND)))._mpf_
                add = mpf_add(add, mpf_mul(w, mpf_add(fa, fb, wp, RND), wp, RND), wp, RND)
            running = running / 2 + mp.make_mpf(add)
            new_value = running * half
            err = abs(new_value - value)
            value = new_value
            rel = err / (1 + abs(value))
            if level >= 3 and rel <= tol and (rel <= last ** 1.25 or rel <= floor):
                return value, err, True
            last = rel                            # previous relative difference
        return value, err, False
