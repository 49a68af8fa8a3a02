"""Special functions and curve geometry against independent oracles."""

import dataclasses
import math
import random

import mpmath as mp
import pytest

from pendinv.elliptic import (DivergenceError, DomainError, EnergyMomentum,
                              _discriminant, _dyadic, carlson_rc, carlson_rf, carlson_rj,
                              cubic_roots, ellint_E, ellint_K, ellint_Pi, heuman_lambda0)

# the kernels take the complementary parameter mc = k'^2 = 1 - m


def test_complete_integrals_special_values():
    assert ellint_K(1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellint_E(1.0) == pytest.approx(math.pi / 2, abs=1e-15)
    assert ellint_E(0.0) == 1.0
    assert ellint_E(5e-324) == 1.0
    assert ellint_Pi(0.0, 0.5) == ellint_K(0.5)


def test_complete_integrals_against_mpmath():
    with mp.workdps(400):                  # 1 - mc resolves mc down to 5e-324
        for mc in (0.95, 0.75, 0.5, 0.25, 0.1, 0.01, 1e-8, 1e-17, 1e-100,
                   1e-300, 2.0 ** -1000, 1e-305, 5e-324):
            m = 1 - mp.mpf(mc)
            assert ellint_K(mc) == pytest.approx(float(mp.ellipk(m)), rel=4e-15)
            assert ellint_E(mc) == pytest.approx(float(mp.ellipe(m)), rel=4e-15)
    for n in (-400.0, -5.0, -0.3, 0.4, 0.95):
        for mc in (0.9, 0.4, 0.05):
            assert ellint_Pi(n, mc) == pytest.approx(float(mp.ellippi(n, 1 - mc)),
                                                     rel=1e-13)


@pytest.mark.slow
def test_pi_below_minus_one_against_mpmath():
    # R_F + (n/3) R_J cancels for n < -1; the reflected form must not,
    # down to the largest float.  The reference is that sum on the exact n
    # and mc, with log10|n| digits more than the 40 it keeps
    for n in (-1.0000001, -1.5, -10.0, -1e6, -1e12, -1e20, -1e80, -1e150,
              -1e200, -1e300, -1.7e308):
        for mc in (1.0, 0.5, 1e-10, 1e-300, 5e-324):
            n_mp, mc_mp = mp.mpf(n), mp.mpf(mc)
            with mp.workdps(40 + int(math.log10(-n))):
                ref = (mp.elliprf(0, mc_mp, 1)
                       + n_mp / 3 * mp.elliprj(0, mc_mp, 1, 1 - n_mp))
            assert abs(ellint_Pi(n, mc) / ref - 1) < 1e-15, (n, mc)


def test_divergences():
    with pytest.raises(DivergenceError):
        ellint_K(0.0)
    with pytest.raises(DivergenceError):
        ellint_Pi(1.0, 0.5)
    with pytest.raises(DivergenceError):
        ellint_Pi(0.5, 0.0)
    with pytest.raises(DivergenceError):
        ellint_Pi(-5.0, 0.0)
    for mc in (-0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            ellint_E(mc)


def test_legendre_relation_grid():
    # symmetric in m and mc, so it reads the same at either parameter
    for m in [0.05 * i for i in range(1, 20)]:
        mc = 1 - m
        resid = (ellint_E(m) * ellint_K(mc) + ellint_E(mc) * ellint_K(m)
                 - ellint_K(m) * ellint_K(mc) - math.pi / 2)
        assert abs(resid) < 1e-13


def test_pi_against_direct_quadrature():
    rng = random.Random(0)
    for _ in range(12):
        n = rng.uniform(-3.0, 0.9)
        m = rng.uniform(0.05, 0.9)
        with mp.workdps(30):
            direct = mp.quad(lambda t: 1 / ((1 - n * mp.sin(t) ** 2)
                                            * mp.sqrt(1 - m * mp.sin(t) ** 2)),
                             [0, mp.pi / 2])
        assert abs(ellint_Pi(n, 1 - m) - float(direct)) < 1e-11


def test_lambda0_normalization():
    for mc in (1.0, 0.7, 0.2, 0.001, 1e-300):
        assert heuman_lambda0(math.pi / 2, mc) == pytest.approx(1.0, abs=1e-13)


def test_lambda0_unit_modulus_reduction():
    for phi in (0.3, 0.7, 1.2):
        assert heuman_lambda0(phi, 0.0) == pytest.approx(2 * phi / math.pi,
                                                         abs=1e-15)


def test_lambda0_reflection():
    phi, mc = 0.4, 0.4
    assert heuman_lambda0(math.pi - phi, mc) == pytest.approx(
        2 - heuman_lambda0(phi, mc), abs=1e-13)


def test_lambda0_quadrature_oracle():
    phi, m = 1.2, 0.9
    mc = 1 - m
    with mp.workdps(30):
        f_inc = mp.quad(lambda t: 1 / mp.sqrt(1 - mc * mp.sin(t) ** 2), [0, phi])
        e_inc = mp.quad(lambda t: mp.sqrt(1 - mc * mp.sin(t) ** 2), [0, phi])
        ref = 2 / mp.pi * (mp.ellipk(m) * e_inc
                           - (mp.ellipk(m) - mp.ellipe(m)) * f_inc)
    assert abs(heuman_lambda0(phi, mc) - float(ref)) < 1e-12


def test_carlson_rc_with_small_second_argument():
    for y in (0.9, 0.5, 1e-3, 1e-10, 1e-17, 1e-60, 1e-300, 5e-324):
        with mp.workdps(30):
            ref = mp.elliprc(1, mp.mpf(y))
        assert carlson_rc(1.0, y) == pytest.approx(float(ref), rel=4e-15), y


def test_carlson_rj_with_tiny_and_huge_arguments():
    # the cubed products of the duplication would underflow or overflow
    # without scaling; at the last two dn^2 underflows even so, in the
    # first step
    for args in [(0.0, 1e-200, 1.0, 1e-200), (0.0, 1e-200, 1.0, 2e-200),
                 (0.0, 6.96e-299, 1.0, 7.28e-302), (0.0, 2e-305, 1.0, 2.000000000000001e-305),
                 (1e-200, 2e-200, 3e-200, 4e-200), (0.0, 5e-324, 1.0, 0.5),
                 (0.0, 1e-300, 1.0, 1e-120), (0.0, 1e-150, 1.0, 1.5),
                 (1e200, 2e200, 3e200, 1e200),
                 (0.3, 0.6, 1.2, 0.9)]:
        with mp.workdps(100):
            ref = mp.elliprj(*(mp.mpf(a) for a in args))
        assert carlson_rj(*args) == pytest.approx(float(ref), rel=1e-14), args


def test_carlson_symmetry():
    rng = random.Random(1)
    for _ in range(10):
        x, y, z = (rng.uniform(0.1, 4.0) for _ in range(3))
        vals = {carlson_rf(x, y, z), carlson_rf(z, x, y), carlson_rf(y, z, x)}
        assert max(vals) - min(vals) < 1e-15 * max(vals)


def test_cubic_roots_critical_point():
    d = cubic_roots(EnergyMomentum(0.0, 0.0))
    assert (d.zeta0, d.zeta1, d.zeta2) == (-1.0, 1.0, 1.0)


def test_cubic_roots_bottom_degenerate():
    d = cubic_roots(EnergyMomentum(-2.0, 0.0))
    assert d.zeta0 == d.zeta1 == -1.0
    assert d.zeta2 == 1.0


def test_cubic_roots_residuals_and_fields():
    em = EnergyMomentum(0.3, 0.2)
    d = cubic_roots(em)
    for z in (d.zeta0, d.zeta1, d.zeta2):
        assert abs(2 * (1 - z * z) * (em.h + 1 - z) - em.j2 * em.j2) < 1e-14
    assert d.span == pytest.approx(d.zeta2 - d.zeta0)
    assert d.kcsq == pytest.approx((d.zeta2 - d.zeta1) / (d.zeta2 - d.zeta0))


def test_elliptic_data_is_frozen():
    # one instance is shared by every caller holding the same EnergyMomentum
    d = cubic_roots(EnergyMomentum(0.3, 0.2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        d.kcsq = 0.5


def test_cubic_roots_small_parameter_expansion():
    for (h, j2) in [(0.01, 0.005), (0.02, 0.01), (-0.01, 0.008)]:
        d = cubic_roots(EnergyMomentum(h, j2))
        s = math.hypot(h, j2)
        z0_exp = -1 + j2 * j2 / 8
        z1_exp = 1 + 0.5 * (h - s) * (1 - j2 * j2 / (8 * s))
        z2_exp = 1 + 0.5 * (h + s) * (1 + j2 * j2 / (8 * s))
        bound = 10 * s ** 3
        assert abs(d.zeta0 - z0_exp) < bound
        assert abs(d.zeta1 - z1_exp) < bound
        assert abs(d.zeta2 - z2_exp) < bound


def test_root_ordering_on_disk_grid():
    for i in range(1, 11):
        rho = i / 10
        for k in range(24):
            ang = 2 * math.pi * (k + 0.5) / 24
            h = rho * math.cos(ang)
            j2 = rho * math.sin(ang)
            try:
                d = cubic_roots(EnergyMomentum(h, j2))
            except DomainError:
                pytest.fail(f"unexpected domain error at ({h}, {j2})")
            assert -1 - 1e-12 <= d.zeta0 <= d.zeta1 <= 1 + 1e-12 <= d.zeta2 + 2e-12


def test_vieta_identities():
    rng = random.Random(2)
    for _ in range(20):
        h = rng.uniform(-0.8, 0.8)
        j2 = rng.uniform(-0.6, 0.6)
        try:
            d = cubic_roots(EnergyMomentum(h, j2))
        except DomainError:
            continue
        e1 = d.zeta0 + d.zeta1 + d.zeta2
        e2 = (d.zeta0 * d.zeta1 + d.zeta0 * d.zeta2 + d.zeta1 * d.zeta2)
        e3 = d.zeta0 * d.zeta1 * d.zeta2
        assert abs(e1 - (h + 1)) < 1e-13
        assert abs(e2 - (-1.0)) < 1e-13
        assert abs(e3 - (j2 * j2 / 2 - (h + 1))) < 1e-13


def _discriminant_products(h, j2) -> tuple[int, int]:
    """The discriminant test with every power of two multiplied out: the
    reference for the shifts of `_discriminant`."""
    if not (math.isfinite(h) and math.isfinite(j2)):
        raise DomainError(f"non-finite input (h, j2) = ({h}, {j2})")
    if h < -2:
        raise DomainError(f"h = {h} below the potential minimum -2")
    hn, a = _dyadic(h)
    jn, b = _dyadic(j2)
    u, b2 = hn + a, b * b
    d = 2 * u * b2 - jn * jn * a
    num = (144 * u * d * a * a * b2 + 32 * u ** 3 * d * b2
           + 16 * u * u * a * a * b2 * b2 + 64 * a ** 4 * b2 * b2
           - 108 * d * d * a * a)
    if num < 0:
        raise DomainError(
            f"no real motion at (h, j2) = ({h}, {j2}): P has complex roots "
            "(h below the relative equilibrium energy)")
    return num, a ** 4 * b2 * b2


def _outcome(test, h, j2):
    try:
        return test(h, j2)
    except DomainError as exc:
        return str(exc)


def test_discriminant_shifts_match_the_products():
    rng = random.Random(35)
    points = [(-2.0, 0.0), (-2.0, 1e-300), (-2.0, -0.0), (math.nextafter(-2.0, -3.0), 0.0),
              (1.7e308, 0.0), (1.7e308, 1e154), (1.7e308, 1e300), (0.0, 0.0),
              (0.2, 5e-324), (-1.9, -5e-324), (0.3, 2.5e-310), (math.nan, 0.1), (0.1, -math.inf)]
    for _ in range(40):
        h = rng.choice([rng.uniform(-2.0, 3.0), 10 ** rng.uniform(-20, 300)])
        lo, hi = 0.0, 4 * (abs(h) + 2)
        while (mid := (lo + hi) / 2) not in (lo, hi):      # the image edge at h
            if isinstance(_outcome(_discriminant_products, h, mid), str):
                hi = mid
            else:
                lo = mid
        points += [(h, lo), (h, -lo), (h, hi), (h, math.nextafter(lo, 0.0)), (h, 0.0), (h, -0.0)]
    for prec in (148, 276):
        with mp.workprec(prec):
            points += [(mp.mpf(h) + mp.mpf(2) ** -(prec - 10), mp.mpf(j2) / 3)
                       for h, j2 in points[:60] if math.isfinite(h) and math.isfinite(j2)]
            points += [(mp.mpf(-2), mp.mpf(0)), (mp.mpf(1) / 3, mp.mpf(2) ** -1100)]
    outcomes = [(_outcome(_discriminant, h, j2), _outcome(_discriminant_products, h, j2))
                for h, j2 in points]
    assert all(new == old for new, old in outcomes)
    assert sum(isinstance(old, str) for _, old in outcomes) >= 40   # refusals compared too


def test_no_real_motion_raises():
    with pytest.raises(DomainError):
        cubic_roots(EnergyMomentum(-1.99, 0.5))
    with pytest.raises(DomainError):
        cubic_roots(EnergyMomentum(-3.0, 0.0))
