"""Tests of the benchmark itself: classifier, span arithmetic, accounting."""

import itertools
import math
import time
from collections import Counter

import pytest

import run
import sweepgen
import workloads
from tracer import Tracer, layer_metrics, self_times
from pendinv.elliptic import DomainError

NAN = float("nan")


# -- in-image classifier ---------------------------------------------------------

@pytest.mark.parametrize("h, j2, inside", [
    (1e-9, 1e-9, True),         # regular point that cubic_roots rejects
    (2.0, 1e-200, True),        # j2^2 underflows in floats
    (0.3, 1e-100, True),
    (-2.0, 0.0, True),          # the potential minimum
    (0.0, 0.0, True),           # critical value: double root at z = 1
    (-2.5, 0.0, False),         # below the potential minimum
    (-2.0 - 1e-15, 0.0, False),
    (-1.9, 1.5, False),         # below the relative equilibria
    (NAN, 0.1, False),
    (0.1, math.inf, False),
    (-math.inf, 0.0, False),
])
def test_in_image_boundary_cases(h, j2, inside):
    assert sweepgen.in_image(h, j2) is inside


def test_in_image_follows_the_discriminant_sign_across_a_relative_equilibrium():
    # at fixed j2 the image starts at the relative-equilibrium energy, where
    # the discriminant changes sign
    j2 = 0.5
    lo, hi = -2.0, 0.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if sweepgen.in_image(mid, j2) else (mid, hi)
    assert not sweepgen.in_image(lo, j2) and sweepgen.in_image(hi, j2)
    assert sweepgen.cubic_discriminant_sign(lo, j2) < 0 <= sweepgen.cubic_discriminant_sign(hi, j2)


def test_discriminant_sign_matches_rational_arithmetic():
    from fractions import Fraction

    def reference(h, j2):
        # general cubic discriminant of 2 z^3 - 2(h+1) z^2 - 2 z + 2(h+1) - j2^2
        a, b, c = 2, -2 * (Fraction(h) + 1), -2
        d = 2 * (Fraction(h) + 1) - Fraction(j2) ** 2
        disc = (18 * a * b * c * d - 4 * b ** 3 * d + b * b * c * c
                - 4 * a * c ** 3 - 27 * a * a * d * d)
        return (disc > 0) - (disc < 0)

    points = sweepgen.block(11, 200)
    for p in points + [_point(0.0, 0.0), _point(-1.9, 1.5), _point(2.0, 1e-200)]:
        if math.isfinite(p.h) and math.isfinite(p.j2):
            assert sweepgen.cubic_discriminant_sign(p.h, p.j2) == reference(p.h, p.j2)


def test_point_block_is_seeded_stratified_and_labelled():
    first = sweepgen.block(5, 1200)
    again = sweepgen.block(5, 1200)
    assert [repr(p) for p in first] == [repr(p) for p in again]   # NaN != NaN
    other = sweepgen.block(6, 1200)
    assert [(p.h, p.j2) for p in first[:300]] != [(p.h, p.j2) for p in other[:300]]
    assert [p.index for p in first] == list(range(1200))
    counts = Counter(p.stratum for p in first)
    assert counts == Counter(p.stratum for p in other)
    assert counts["near_axis"] == 120 and counts["rejected"] == 60
    for p in first:
        assert p.in_image == (p.stratum != "rejected")
        assert p.in_image == sweepgen.in_image(p.h, p.j2)


# -- span arithmetic ---------------------------------------------------------------

def test_self_time_subtracts_only_direct_children():
    spans = [["a", 0.0, 10.0, -1, 0],
             ["b", 1.0, 3.0, 0, 0],
             ["b", 4.0, 6.0, 0, 0],
             ["c", 4.5, 5.0, 2, 0]]
    assert self_times(spans) == [6.0, 2.0, 1.5, 0.5]
    names = {"a": "cli.main", "b": "actions.twist", "c": "series.partial"}
    metrics = layer_metrics([[names[g], *rest] for g, *rest in spans], {})
    assert metrics["cli.main.self_s"] == 6.0
    assert metrics["actions.twist.calls"] == 2
    assert metrics["actions.twist.self_us"] == pytest.approx(1.75e6)
    assert metrics["series.partial.self_s"] == 0.5


def test_self_time_clips_overlapping_children():
    spans = [["a", 0.0, 4.0, -1, 0],
             ["b", 1.0, 3.0, 0, 0],
             ["b", 2.0, 5.0, 0, 0]]
    assert self_times(spans)[0] == 1.0


def test_tracer_records_nested_spans_and_restores_names():
    from pendinv import actions, elliptic
    from pendinv.elliptic import EnergyMomentum

    before = (actions.action_I1, actions.ellint_K, elliptic.ellint_K)
    with Tracer() as tr:
        tr.op_id = 3
        actions.action_I1(EnergyMomentum(0.2, 0.1))
    assert (actions.action_I1, actions.ellint_K, elliptic.ellint_K) == before
    groups = [s[0] for s in tr.spans]
    assert groups[0] == "actions.action_I1"
    assert "elliptic.cubic_roots" in groups and "elliptic.carlson" in groups
    assert all(s[4] == 3 for s in tr.spans)
    assert all(s[3] >= 0 for s in tr.spans[1:])


# -- failure accounting ------------------------------------------------------------

_index = itertools.count()


def _point(h, j2):
    return sweepgen.SweepPoint(h, j2, "test", sweepgen.in_image(h, j2), next(_index))


def test_expected_domain_error_counts_as_success():
    outcomes = {"action_I1": ("raise", DomainError)}
    assert workloads.classify(_point(-2.5, 0.0), outcomes) == []


@pytest.mark.parametrize("h, j2, outcome", [
    (-2.5, 0.0, ("ok", 0.5)),              # value returned outside the image
    (-2.5, 0.0, ("raise", ZeroDivisionError)),
    (NAN, 0.1, ("ok", NAN)),               # NaN passed through
    (0.2, 0.1, ("ok", NAN)),               # non-finite value inside
    (0.2, 0.1, ("raise", DomainError)),    # DomainError inside the image
    (0.2, 0.1, ("raise", ValueError)),
])
def test_failures_are_counted(h, j2, outcome):
    assert workloads.classify(_point(h, j2), {"rotation_W_numeric": outcome})


def test_listed_defects_fail_but_only_unlisted_failures_are_incorrect():
    listed = [(_point(1e-9, 1e-9), "action_I1: raised DomainError"),
              (_point(2.0, 1e-200), "rotation_W_numeric: raised ZeroDivisionError"),
              (_point(-2.5, 0.0), "rotation_W_numeric: returned outside the image"),
              (_point(NAN, 0.1), "period_T_numeric: returned outside the image")]
    records = [run.Record(p, None, 1.0, 0, (r,)) for p, r in listed]
    records.append(run.Record(_point(0.2, 0.1), None, 1.0))
    assert run.summary(workloads.WORKLOADS["sweep"], records) == (5, 4, True)
    records.append(run.Record(_point(0.2, 0.1), None, 1.0, 0,
                              ("twist: raised ValueError",)))
    assert run.summary(workloads.WORKLOADS["sweep"], records) == (6, 5, False)


def test_repeated_evaluations_of_an_input_count_once():
    sweep = workloads.WORKLOADS["sweep"]
    ok, bad = _point(0.2, 0.1), _point(-2.5, 0.0)
    defect = ("rotation_W_numeric: returned outside the image",)
    records = [run.Record(p, None, 1.0, 0, r)
               for _ in range(3) for p, r in ((ok, ()), (bad, defect))]
    assert run.summary(sweep, records) == (2, 1, True)
    twice = [run.Record(t, None, 1.0) for t in 2 * workloads.ORBIT_TARGETS]
    assert run.attempted_failed(workloads.WORKLOADS["orbit"], twice) == (8, 0)


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "max of 3")
    value, label = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and label.startswith("p90 of 100")


def test_speed_correction_scales_each_slice():
    # slice 0 ran at nominal speed, slice 1 at half speed, slice 2 is
    # incomplete (no scale) and is left out
    records = ([run.Record(None, None, 0.1, 0) for _ in range(5)]
               + [run.Record(None, None, 0.2, 1) for _ in range(5)]
               + [run.Record(None, None, 9.0, 2)])
    op_s, per_s = run.speed_corrected(workloads.WORKLOADS["sweep"], records,
                                      [1.0, 0.5, None])
    assert op_s == pytest.approx(0.1)
    assert per_s == pytest.approx(10.0)


def test_orbit_reports_the_set_time_from_each_targets_median():
    targets = workloads.ORBIT_TARGETS
    records = [run.Record(t, None, 0.1, 0) for t in targets]
    records += [run.Record(t, None, 0.4, 1) for t in targets]   # half speed
    records += [run.Record(t, None, 0.1, 2) for t in targets]
    set_s, per_s = run.speed_corrected(workloads.WORKLOADS["orbit"], records,
                                       [1.0, 0.5, 1.0])
    # scaled times per target: 0.1, 0.2, 0.1; median 0.1
    assert set_s == pytest.approx(0.8) and per_s == pytest.approx(1.25)


def test_speed_sampler_samples_during_work_and_measures_its_own_time():
    with run.SpeedSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            sum(i * i for i in range(1000))
        t1 = time.perf_counter()
    assert len(sampler.samples) >= 5
    overhead = sampler.overhead(0, t0, t1)
    assert 0.0 < overhead < 0.2 * (t1 - t0)
    assert sampler.scale(0, len(sampler.samples)) > 0.0
    assert sampler.scale(0, 0) is None
    count = len(sampler.samples)
    time.sleep(0.05)
    assert len(sampler.samples) == count          # stopped on leaving
