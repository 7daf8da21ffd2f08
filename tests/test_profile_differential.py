"""Differential fuzzing of the profile fast paths against the oracles.

The fast paths — exact, float form, and inexact operands that are not
float64-safe — must all be *indistinguishable* from the retained
``_reference_*`` implementations — same breakpoints, same values, same
exceptions — over
seeded random profiles that deliberately mix numeric types (int, float,
Fraction) and force the historical trouble spots: coincident
breakpoints, zero-width segments, window edges landing exactly on
breakpoints under a different numeric type.

Two real divergences this fuzzer surfaced are pinned as minimized
regression tests below:

* ``integral`` tie-breaking: the scalar fast path picked the *window*
  coordinate when a segment boundary coincided with a window edge under
  a different type (``1`` vs ``1.0``), while the reference's
  ``Interval.intersection`` (``max``/``min``) picks the *segment*
  coordinate — one ulp of drift under mixed Fraction/float arithmetic.
* ``_reference_min_rate`` coverage dust: summing mixed float/Fraction
  segment durations accrued rounding error and declared a fully-covered
  window uncovered, returning a spurious 0.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from repro.errors import InvalidTermError, UndefinedOperationError
from repro.intervals import Interval
from repro.resources import RateProfile
from repro.resources import profile as P

TRIALS = 2500  # per generator family; seeds make failures reproducible


# ----------------------------------------------------------------------
# Seeded generators
# ----------------------------------------------------------------------

def _mixed_coord(rng):
    """A coordinate drawn across numeric types, biased toward values
    that collide across representations (``1`` == ``1.0`` == ``F(1)``)."""
    c = rng.randint(0, 5)
    if c == 0:
        return rng.randint(0, 8)
    if c == 1:
        return Fraction(rng.randint(0, 24), rng.randint(1, 6))
    if c == 2:
        return round(rng.random() * 8, 2)
    if c == 3:
        return rng.random() * 8
    if c == 4:
        return float(rng.randint(0, 8))
    return rng.choice([0, 0.0, 1, 1.0, Fraction(1), Fraction(1, 3), 1 / 3])


def _float_coord(rng):
    """A float64-safe coordinate (keeps the float-form path engaged)."""
    c = rng.randint(0, 2)
    if c == 0:
        return float(rng.randint(0, 8))
    if c == 1:
        return round(rng.random() * 8, 2)
    return rng.random() * 8


def _profile(rng, coord):
    n = rng.randint(0, 6)
    pts = [(coord(rng), abs(coord(rng))) for _ in range(n)]
    if pts and rng.random() < 0.4:
        # Force a coincident breakpoint: same time, different rate —
        # normalisation must resolve it last-wins on both paths.
        t = pts[rng.randrange(len(pts))][0]
        pts.append((t, abs(coord(rng))))
    return RateProfile(pts)


def _window(rng, coord):
    lo, hi = coord(rng), coord(rng)
    if hi < lo:
        lo, hi = hi, lo
    return Interval(lo, hi)


GENERATORS = {
    "mixed-types": _mixed_coord,
    "float64": _float_coord,
}


# ----------------------------------------------------------------------
# Oracles not retained in profile.py (derived from _reference_rate_at)
# ----------------------------------------------------------------------

def _merged_times(a, b):
    return sorted(
        {t for t, _ in a.breakpoints} | {t for t, _ in b.breakpoints}
    )


def _oracle_cap(a, b):
    return RateProfile(
        (t, min(P._reference_rate_at(a, t), P._reference_rate_at(b, t)))
        for t in _merged_times(a, b)
    )


def _oracle_saturating_sub(a, b):
    return RateProfile(
        (t, max(0, P._reference_rate_at(a, t) - P._reference_rate_at(b, t)))
        for t in _merged_times(a, b)
    )


def _oracle_dominates(a, b):
    return all(
        P._reference_rate_at(a, t) >= P._reference_rate_at(b, t)
        for t in _merged_times(a, b)
    )


def _subtract_outcome(fn):
    try:
        return ("ok", tuple(fn()._points))
    except (UndefinedOperationError, InvalidTermError) as exc:
        return ("raise", type(exc).__name__)


def _is_float_safe(profile):
    return P.points_safe(profile.breakpoints)


def _assert_coordinate_types(result, *operands):
    """No kernel enforces float form any more, so the fuzz does: an
    inexact operation on float64-safe operands returns every coordinate
    as a ``float``, and an exact one returns none."""
    if result.is_zero:
        return
    coords = [v for pt in result.breakpoints for v in pt]
    if all(op._is_exact() for op in operands):
        assert all(P.is_exact(v) for v in coords), (operands, result)
    elif all(_is_float_safe(op) for op in operands):
        assert all(type(v) is float for v in coords), (operands, result)


# ----------------------------------------------------------------------
# The differential sweep
# ----------------------------------------------------------------------

@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_binary_ops_match_reference(family):
    coord = GENERATORS[family]
    rng = random.Random(20260808)
    for _ in range(TRIALS):
        a, b = _profile(rng, coord), _profile(rng, coord)
        total = a + b
        assert total == P._reference_add(a, b), (a, b)
        if not (a.is_zero or b.is_zero):  # ``+`` returns the other operand
            _assert_coordinate_types(total, a, b)
        capped = a.cap(b)
        assert capped == _oracle_cap(a, b), (a, b)
        _assert_coordinate_types(capped, a, b)
        clamped = a.saturating_sub(b)
        assert clamped == _oracle_saturating_sub(a, b), (a, b)
        if not b.is_zero:  # subtracting zero returns the minuend
            _assert_coordinate_types(clamped, a, b)
        assert a.dominates(b) == _oracle_dominates(a, b), (a, b)
        fast = _subtract_outcome(lambda: a.subtract(b))
        ref = _subtract_outcome(lambda: P._reference_subtract(a, b))
        # Exception *parity* is part of the contract: the float-form
        # path must raise exactly when the reference raises.
        assert fast[0] == ref[0], (a, b, fast, ref)
        if fast[0] == "ok":
            assert fast[1] == ref[1], (a, b)
            if not b.is_zero:
                _assert_coordinate_types(a.subtract(b), a, b)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_queries_match_reference(family):
    coord = GENERATORS[family]
    rng = random.Random(991)
    for _ in range(TRIALS):
        a = _profile(rng, coord)
        w = _window(rng, coord)
        if not w.is_empty:
            assert a.integral(w) == P._reference_integral(a, w), (a, w)
            assert a.min_rate(w) == P._reference_min_rate(a, w), (a, w)
        ts = [coord(rng) for _ in range(4)]
        assert a.rates_at(ts) == [P._reference_rate_at(a, t) for t in ts]
        quantity, start = abs(coord(rng)), coord(rng)
        assert a.earliest_accumulation(start, quantity) == (
            P._reference_earliest_accumulation(a, start, quantity)
        ), (a, start, quantity)


@pytest.mark.parametrize("family", sorted(GENERATORS))
def test_aggregation_matches_reference(family):
    coord = GENERATORS[family]
    rng = random.Random(4242)
    for _ in range(TRIALS // 5):
        profiles = [_profile(rng, coord) for _ in range(rng.randint(2, 5))]
        expected = RateProfile.zero()
        for p in profiles:
            expected = P._reference_add(expected, p)
        total = RateProfile.sum(profiles)
        assert total == expected, profiles
        if sum(not p.is_zero for p in profiles) > 1:  # else an operand
            _assert_coordinate_types(total, *profiles)
        segments = []
        for _ in range(rng.randint(1, 5)):
            w = _window(rng, coord)
            if not w.is_empty:
                segments.append((w, abs(coord(rng))))
        aggregate = RateProfile.from_segments(segments)
        assert aggregate == P._reference_from_segments(segments), segments
        _assert_coordinate_types(aggregate, *(
            RateProfile([(w.start, rate), (w.end, 0)]) for w, rate in segments
        ))


# ----------------------------------------------------------------------
# Minimized regressions for divergences the fuzzer surfaced
# ----------------------------------------------------------------------

def test_integral_tie_break_at_mixed_type_window_edge():
    """Window edge ``1.0`` coinciding with breakpoint ``1`` (int): the
    fast path must pick the segment coordinate on the tie, like the
    reference's ``max``, or mixed Fraction/float rounding drifts a ulp."""
    a = RateProfile([(1, 1.9522662677165377), (3.3181644759687963, 7)])
    w = Interval(1.0, Fraction(4, 3))
    assert a.integral(w) == P._reference_integral(a, w)


def test_integral_type_does_not_depend_on_earlier_merges():
    """A query answers on the profile's own coordinates: merges that
    read the profile earlier in the process must not change the type
    (or value) of a later answer."""
    b = RateProfile([(6, 8), (7, 0.0)])
    window = Interval(5.5, 11.5)
    before = b.integral(window)
    RateProfile([(0, 1.5)]).saturating_sub(b)
    RateProfile([(0, 1.5)]).cap(b)
    assert b.dominates(RateProfile([(6, 1.5), (7, 0)]))
    after = b.integral(window)
    assert after == before == 8
    assert type(after) is type(before)
    assert b.rates_at([6.5, 7]) == [8, 0.0]


def test_reference_min_rate_coverage_has_no_float_dust():
    """Fully-covered window whose mixed-type segment durations do not sum
    back to the window duration in float64: coverage must be tracked by
    frontier comparison, not accumulation, so the answer is the true
    minimum rather than the no-coverage fallback 0."""
    a = RateProfile([(0, 6.86), (2, 5.449389469605602), (2.65, 1.35)])
    w = Interval(Fraction(2), Fraction(8, 3))
    assert P._reference_min_rate(a, w) == 1.35
    assert a.min_rate(w) == 1.35


def test_reference_min_rate_still_reports_real_gaps():
    """The frontier rewrite must not paper over genuine gaps: an interior
    zero-rate segment and a pre-support window still report 0."""
    holey = RateProfile([(0, 1), (1, 0), (2, 3)])
    assert P._reference_min_rate(holey, Interval(0, 3)) == 0
    assert holey.min_rate(Interval(0, 3)) == 0
    late = RateProfile([(5, 2)])
    assert P._reference_min_rate(late, Interval(0, 6)) == 0
    assert late.min_rate(Interval(0, 6)) == 0


def test_subtract_negative_parity_at_coincident_breakpoints():
    """A last-wins coincident breakpoint that flips the sign of the
    difference: both paths must agree the result is negative (raise)."""
    a = RateProfile([(0.0, 2.0), (1.0, 1.0)])
    b = RateProfile([(1.0, 3.0), (1.0, 1.5)])  # last-wins: rate 1.5 at 1.0
    with pytest.raises(UndefinedOperationError):
        a.subtract(b)
    with pytest.raises(UndefinedOperationError):
        P._reference_subtract(a, b)


def test_subtract_epsilon_dust_is_snapped_only_when_inexact():
    base = RateProfile([(0.0, 1.0)])
    dusty = RateProfile([(0.0, 1.0 + 1e-12)])
    assert base.subtract(dusty) == P._reference_subtract(base, dusty)
    exact_over = RateProfile([(0, Fraction(1) + Fraction(1, 10 ** 12))])
    with pytest.raises(UndefinedOperationError):
        RateProfile([(0, 1)]).subtract(exact_over)
