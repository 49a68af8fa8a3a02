"""Tanh-sinh (double exponential) quadrature at configurable precision.

Handles inverse-square-root endpoint behaviour, which is exactly what the
action integrands produce at the turning points.  Nodes and weights are
cached per (precision, level); abscissae are stored as distances from the
nearest endpoint so that the double-exponential clustering near the ends
does not lose digits.  A level holds only the nodes no coarser level
has, so each node is computed once.
"""

from __future__ import annotations

from typing import Callable

import mpmath as mp

_node_cache: dict[tuple[int, int], list[tuple[object, object]]] = {}


def _nodes(prec: int, level: int):
    """Nodes for step h = 2^-level as (distance-from-endpoint, weight) pairs.

    Level 0 holds t = k h for k = 1, 2, ...; a level >= 1 only the odd k,
    entry i at k = 2i + 1.  The node near the right endpoint of [-1, 1]
    sits at 1 - d, its mirror at -1 + d.  The weight includes the step
    factor h.  A level ends at the first k, odd or even, where even a 1/sqrt
    endpoint singularity could no longer contribute at precision `prec`;
    an even k = 2j tests node j of the level below, its weight halved.
    """
    key = (prec, level)
    cached = _node_cache.get(key)
    if cached is not None:
        return cached
    with mp.workprec(prec + 20):
        h = mp.mpf(2) ** (-level)
        pi_half = mp.pi / 2
        tiny = mp.mpf(2) ** (-(prec + 15))
        out = []
        k = 1
        while True:
            if level and k % 2 == 0:
                d, w = _entry(prec, level, k)     # a coarser level's node
            else:
                t = k * h
                u = pi_half * mp.sinh(t)
                d = 2 / (1 + mp.exp(2 * u))          # 1 - tanh(u)
                w = h * pi_half * mp.cosh(t) / mp.cosh(u) ** 2
                out.append((d, w))
            if w < tiny * mp.sqrt(d):
                break
            k += 1
    _node_cache[key] = out
    return out


def _entry(prec: int, level: int, k: int) -> tuple:
    """(d, w) at t = k 2^-level, from the table that holds it."""
    if level == 0:
        return _nodes(prec, 0)[k - 1]
    if k % 2:
        return _nodes(prec, level)[k // 2]
    d, w = _entry(prec, level - 1, k // 2)
    return d, mp.ldexp(w, -1)                     # exact


def tanh_sinh(f: Callable, a, b, prec: int = 53, max_level: int = 12) -> tuple:
    """Integrate f over [a, b]; returns (value, error_estimate, converged).

    f is evaluated strictly inside (a, b); integrable endpoint
    singularities up to 1/sqrt converge at full accuracy.  The step is
    halved, from level 3 on, until two successive refinements agree to
    relative 2^(10-prec) and the last relative difference d_L still falls
    doubly exponentially, d_L <= d_(L-1)^1.25, or sits at the noise floor
    2^(6-prec).  Differences that shrink by a fixed factor per level, as
    on the j2 = 0 axis of the action integrand, can meet the tolerance
    while the error is a hundred times larger; they do not count.  (The
    exponent is below 2 because near the critical value the descent is
    still pre-asymptotic, about 1.4, when it reaches the tolerance.  The
    floor lies above the plateau of rounding noise that differences reach
    there, up to about 2^(5.4-prec), and below the 2^(6.9-prec) that the
    axis differences come down to at (0.5, 0) and 53 bits.)
    Value and error estimate are mpf, and `converged` is False when
    `max_level` was reached first.
    """
    with mp.workprec(prec + 20):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if a == b:
            return mp.mpf(0), mp.mpf(0), True
        half = (b - a) / 2
        mid = (a + b) / 2
        tol = mp.mpf(2) ** (10 - prec)

        floor = mp.mpf(2) ** (6 - prec)           # above the noise plateau
        running = value = mp.mpf(0)
        for level in range(max(max_level, 0) + 1):      # level 0 always runs
            # level 0 is the trapezoid with h = 1, its t = 0 node of weight pi/2
            add = mp.pi / 2 * f(mid) if level == 0 else mp.mpf(0)
            for d, w in _nodes(prec, level):
                add += w * (f(a + half * d) + f(b - half * d))
            running = running / 2 + add
            new_value = running * half
            err = abs(new_value - value)
            value = new_value
            rel = err / (1 + abs(value))
            if level >= 3 and rel <= tol and (rel <= last ** 1.25 or rel <= floor):
                return value, err, True
            last = rel                            # previous relative difference
        return value, err, False
