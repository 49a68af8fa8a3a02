"""Seeded point generator for the momentum-map sweep, with an exact classifier.

The generator draws (h, j2) points in strata and labels each one with the
outcome the program must produce: values for a point inside the image of
the momentum map, ``DomainError`` for a point outside it or a non-finite
input.  The label never comes from the program: :func:`in_image` decides
with exact rational arithmetic on the float inputs.

The defining cubic is P(z) = 2 (1 - z^2)(h + 1 - z) - j2^2.  P(+-1) = -j2^2
<= 0 and P -> +inf as z -> +inf, so one root lies at or above 1.  For
h >= -2, P < 0 on z < -1, so the two remaining roots lie in [-1, 1]
exactly when all three roots are real, i.e. when the discriminant is
non-negative.  For h < -2 a root drops below -1 and there is no motion on
the sphere at j2 = 0 (and none at j2 != 0 either, since the energy is
below the potential minimum).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

STRATA = ("interior", "near_critical", "near_axis", "edge", "rejected")
# share of points per stratum, in the order of STRATA
WEIGHTS = (0.70, 0.10, 0.10, 0.05, 0.05)


@dataclass(frozen=True, slots=True)
class SweepPoint:
    """One generated input and the outcome the program must produce.

    `index` is the point's position in its block; it identifies the point
    when the block is evaluated more than once.
    """

    h: float
    j2: float
    stratum: str
    in_image: bool
    index: int = -1


def cubic_discriminant_sign(h: float, j2: float) -> int:
    """Exact sign of the discriminant of P(z) = 2 z^3 + b z^2 - 2 z + d.

    With u = h + 1, b = -2u and d = 2u - j2^2 the discriminant is
    144 u d + 32 u^3 d + 16 u^2 + 64 - 108 d^2.  Floats are dyadic
    rationals, so with u = U/A and j2 = J/B the discriminant times
    A^4 B^4 > 0 is an integer polynomial and its sign is exact.
    """
    a_num, a_den = h.as_integer_ratio()
    j_num, j_den = j2.as_integer_ratio()
    u, a, b2 = a_num + a_den, a_den, j_den * j_den
    d = 2 * u * b2 - j_num * j_num * a          # d = D / (A B^2)
    scaled = (144 * u * d * a * a * b2 + 32 * u ** 3 * d * b2
              + 16 * u * u * a * a * b2 * b2 + 64 * a ** 4 * b2 * b2
              - 108 * d * d * a * a)
    return (scaled > 0) - (scaled < 0)


def in_image(h: float, j2: float) -> bool:
    """True when (h, j2) lies in the image of the momentum map.

    Non-finite inputs are outside.  The root bracket -1 <= z0 <= z1 <= 1
    <= z2 holds exactly when h >= -2 and the discriminant is non-negative;
    both tests are exact, so no rounding decides the answer.
    """
    if not (math.isfinite(h) and math.isfinite(j2)):
        return False
    return h >= -2.0 and cubic_discriminant_sign(h, j2) >= 0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def _draw(rng: random.Random, stratum: str) -> tuple[float, float]:
    if stratum == "interior":
        h = rng.uniform(-1.9, 2.0)
        j2 = rng.uniform(-2.0, 2.0)
        if math.hypot(h, j2) < 1e-3 or abs(j2) < 1e-3:
            return math.nan, 0.0          # belongs to another stratum; redraw
        return h, j2
    if stratum == "near_critical":
        rho = _log_uniform(rng, 1e-9, 1e-3)
        ang = rng.uniform(0.0, 2 * math.pi)
        return rho * math.cos(ang), rho * math.sin(ang)
    if stratum == "near_axis":
        h = rng.uniform(-1.9, 3.0)
        if abs(h) < 1e-3:
            return math.nan, 0.0
        if rng.random() < 0.25:
            return h, 0.0
        return h, rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-300, 1e-3)
    if stratum == "edge":
        if rng.random() < 0.5:
            dh = rng.uniform(0.0, 1e-6)
            j2 = 0.0 if rng.random() < 0.5 else rng.uniform(-1.0, 1.0) * dh
            return -2.0 + dh, j2
        return rng.uniform(3.0, 50.0), rng.uniform(-3.0, 3.0)
    # rejected: below the potential minimum on the axis, below the relative
    # equilibria off the axis, or a non-finite coordinate
    kind = rng.randrange(3)
    if kind == 0:
        return -2.0 - _log_uniform(rng, 1e-6, 1.0), 0.0
    if kind == 1:
        return rng.uniform(-2.0, 0.0), rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.5)
    bad = rng.choice((math.nan, math.inf, -math.inf))
    return (bad, rng.uniform(-1.0, 1.0)) if rng.random() < 0.5 \
        else (rng.uniform(-1.0, 1.0), bad)


def draw_point(rng: random.Random, stratum: str) -> SweepPoint:
    """Draw one point of `stratum`; strata other than `rejected` redraw until inside."""
    while True:
        h, j2 = _draw(rng, stratum)
        if h == 0.0 and j2 == 0.0:
            continue                      # the critical value itself
        inside = in_image(h, j2)
        if inside == (stratum != "rejected"):
            return SweepPoint(h, j2, stratum, inside)


def block(seed: int, size: int) -> list[SweepPoint]:
    """`size` seeded points in shuffled order, indexed by position.

    Each stratum gets its share of WEIGHTS rounded to a whole number of
    points (the interior takes the rounding remainder), so blocks of
    different seeds differ only in the points drawn, not in how many fall
    in each stratum.
    """
    rng = random.Random(seed)
    counts = [round(size * w) for w in WEIGHTS]
    counts[0] += size - sum(counts)
    points = [draw_point(rng, stratum)
              for stratum, n in zip(STRATA, counts) for _ in range(n)]
    rng.shuffle(points)
    return [replace(p, index=i) for i, p in enumerate(points)]
