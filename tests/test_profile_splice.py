"""Differential tests for the spliced exact ``+`` / ``subtract``.

When one operand of an exact addition or subtraction has finite support,
:class:`RateProfile` merges only that operand's span and copies the other
profile's breakpoints outside it verbatim.  These tests pin that path to
the retained ``_reference_add`` / ``_reference_subtract`` oracles over an
exhaustive small-integer enumeration and over ``Fraction`` coordinates,
and check the bookkeeping that rides along: exactness known by
construction, the spliced times/rates index, and the lazily built
cumulative-integral array.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from repro.errors import UndefinedOperationError
from repro.intervals import Interval
from repro.resources import RateProfile
from repro.resources.profile import (
    _reference_add,
    _reference_integral,
    _reference_subtract,
    is_exact,
)

WIDE_TIMES = (0, 1, 3, 4)
WIDE_RATES = (0, 1, 2)
#: Claim edges: before, on and between the wide breakpoints, and past them.
CLAIM_TIMES = (-1, 0, 1, 2, 4, 5)
CLAIM_RATES = (1, 2)


def wide_profiles():
    for combo in itertools.product(WIDE_RATES, repeat=len(WIDE_TIMES)):
        yield RateProfile(zip(WIDE_TIMES, combo))


def claims(times=CLAIM_TIMES, rates=CLAIM_RATES):
    """Every finite-support profile with one or two positive steps."""
    for start, end in itertools.combinations(times, 2):
        for rate in rates:
            yield RateProfile([(start, rate), (end, 0)])
    for start, mid, end in itertools.combinations(times, 3):
        for first, second in itertools.product(rates, repeat=2):
            yield RateProfile([(start, first), (mid, second), (end, 0)])


WIDES = tuple(wide_profiles())
CLAIMS = tuple(claims())


def _scanned_exact(profile: RateProfile) -> bool:
    return all(is_exact(t) and is_exact(r) for t, r in profile.breakpoints)


def _assert_canonical(profile: RateProfile) -> None:
    pts = profile.breakpoints
    assert list(pts) == sorted(pts, key=lambda p: p[0])
    assert all(a[0] < b[0] for a, b in zip(pts, pts[1:]))
    assert all(a[1] != b[1] for a, b in zip(pts, pts[1:]))
    assert not pts or pts[0][1] != 0
    if profile._exact is not None:  # operands pass through unscanned
        assert profile._exact == _scanned_exact(profile)
    if profile._times is not None:
        assert profile._times == [t for t, _ in pts]
    if profile._rl is not None:
        assert profile._rl == [r for _, r in pts]


def _eager_integral(profile: RateProfile, window: Interval):
    """The cumulative-integral formula evaluated from scratch."""
    pts = profile.breakpoints

    def cumulative(t):
        total = 0
        for (t0, rate), nxt in itertools.zip_longest(pts, pts[1:]):
            if t0 >= t:
                break
            end = nxt[0] if nxt is not None and nxt[0] < t else t
            total += rate * (end - t0)
        return total

    return cumulative(window.end) - cumulative(window.start)


def _subtract_or_error(left, right):
    try:
        return _reference_subtract(left, right)
    except UndefinedOperationError:
        return UndefinedOperationError


class TestSpliceMatchesReference:
    @pytest.mark.parametrize("indexed", [False, True])
    def test_add_both_orders(self, indexed):
        for wide, claim in itertools.product(WIDES, CLAIMS):
            if indexed:
                wide.rate_at(0)  # build the times index the splice copies
                wide._rates()
            expected = _reference_add(wide, claim)
            for got in (wide + claim, claim + wide):
                assert got == expected
                _assert_canonical(got)

    @pytest.mark.parametrize("indexed", [False, True])
    def test_subtract(self, indexed):
        for wide, claim in itertools.product(WIDES, CLAIMS):
            if indexed:
                wide.rate_at(0)
                wide._rates()
            expected = _subtract_or_error(wide, claim)
            if expected is UndefinedOperationError:
                with pytest.raises(UndefinedOperationError):
                    wide.subtract(claim)
                continue
            got = wide.subtract(claim)
            assert got == expected
            _assert_canonical(got)

    def test_claims_added_then_subtracted_round_trip(self):
        for wide, claim in itertools.product(WIDES[::5], CLAIMS):
            assert (wide + claim).subtract(claim) == wide

    def test_fraction_coordinates(self):
        half, third = Fraction(1, 2), Fraction(1, 3)
        wides = [
            RateProfile([(0, 2), (half, 3), (Fraction(5, 2), 1), (4, 0)]),
            RateProfile([(third, Fraction(7, 3)), (3, 2)]),
        ]
        claim_times = (0, third, half, 1, Fraction(5, 2), 4, Fraction(9, 2))
        fraction_claims = list(claims(claim_times, (Fraction(2, 3), 1)))
        for wide, claim in itertools.product(wides, fraction_claims):
            wide.rate_at(0)
            assert wide + claim == _reference_add(wide, claim)
            assert claim + wide == _reference_add(claim, wide)
            expected = _subtract_or_error(wide, claim)
            if expected is UndefinedOperationError:
                with pytest.raises(UndefinedOperationError):
                    wide.subtract(claim)
            else:
                got = wide.subtract(claim)
                assert got == expected
                _assert_canonical(got)


class TestSeams:
    def test_equal_rate_join_at_the_leading_seam(self):
        wide = RateProfile([(0, 5), (2, 3), (6, 0)])
        got = wide + RateProfile([(2, 2), (4, 0)])
        assert got.breakpoints == ((0, 5), (4, 3), (6, 0))
        _assert_canonical(got)

    def test_equal_rate_join_at_the_trailing_seam(self):
        wide = RateProfile([(0, 3), (4, 5), (6, 0)])
        got = wide + RateProfile([(2, 2), (4, 0)])
        assert got.breakpoints == ((0, 3), (2, 5), (6, 0))
        _assert_canonical(got)

    def test_claim_starting_at_zero_drops_the_leading_zero(self):
        wide = RateProfile([(0, 2), (5, 1), (9, 0)])
        got = wide.subtract(RateProfile([(0, 2), (5, 0)]))
        assert got.breakpoints == ((5, 1), (9, 0))
        _assert_canonical(got)

    def test_claim_ending_at_the_horizon(self):
        wide = RateProfile([(0, 2), (5, 1), (9, 0)])
        got = wide.subtract(RateProfile([(5, 1), (9, 0)]))
        assert got.breakpoints == ((0, 2), (5, 0))
        _assert_canonical(got)

    def test_subtracting_down_to_zero(self):
        wide = RateProfile([(1, 2), (3, 4), (7, 0)])
        assert wide.subtract(wide).is_zero
        assert (wide - wide) == RateProfile.zero()

    def test_claims_wholly_outside_the_support(self):
        wide = RateProfile([(3, 2), (5, 0)])
        before = RateProfile([(0, 1), (2, 0)])
        after = RateProfile([(7, 1), (9, 0)])
        assert (wide + before).breakpoints == ((0, 1), (2, 0), (3, 2), (5, 0))
        assert (wide + after).breakpoints == ((3, 2), (5, 0), (7, 1), (9, 0))
        with pytest.raises(UndefinedOperationError):
            wide.subtract(before)


class TestNegativeResult:
    def test_exact_negative_raises_with_the_offending_rates(self):
        wide = RateProfile([(0, 3), (2, 1), (8, 0)])
        claim = RateProfile([(1, 2), (4, 0)])
        with pytest.raises(UndefinedOperationError) as caught:
            wide.subtract(claim)
        assert str(caught.value) == (
            "subtraction would make the rate negative at t=2 (1 - 2)"
        )

    def test_smallest_exact_negative_still_raises(self):
        wide = RateProfile([(0, Fraction(1, 3)), (4, 0)])
        claim = RateProfile([(1, Fraction(1, 3) + Fraction(1, 10**9)), (2, 0)])
        with pytest.raises(UndefinedOperationError):
            wide.subtract(claim, tolerance=1.0)


class TestInfiniteSupport:
    def test_infinite_support_operands_take_the_full_merge(self, monkeypatch):
        def refuse(self, narrow):
            raise AssertionError("spliced an infinite-support operand")

        monkeypatch.setattr(RateProfile, "_span_of", refuse)
        wide = RateProfile([(0, 2), (3, 5)])  # rate 5 forever
        other = RateProfile([(1, 1), (4, 2)])  # rate 2 forever
        assert wide + other == _reference_add(wide, other)
        assert other + wide == _reference_add(other, wide)
        assert wide.subtract(other) == _reference_subtract(wide, other)

    def test_finite_subtrahend_of_an_infinite_minuend_is_spliced(self):
        wide = RateProfile([(0, 2), (3, 5)])
        wide.rate_at(0)
        got = wide.subtract(RateProfile([(4, 5), (6, 0)]))
        assert got.breakpoints == ((0, 2), (3, 5), (4, 0), (6, 5))
        _assert_canonical(got)


class TestLazyIndex:
    def test_results_of_exact_ops_are_exact_by_construction(self):
        wide = RateProfile([(0, 4), (5, 2), (9, 0)])
        claim = wide.clamp(Interval(1, 3))
        for got in (claim, wide + claim, wide.subtract(claim),
                    wide.saturating_sub(claim), wide.cap(claim),
                    RateProfile.sum([wide, claim, claim])):
            assert got._exact is True
            assert got._exact == _scanned_exact(got)

    def test_float_results_are_not_marked_exact(self):
        wide = RateProfile([(0, 4), (5, 2), (9, 0)])
        claim = RateProfile([(1, 0.5), (3, 0)])
        for got in (wide + claim, wide.subtract(claim)):
            assert got._is_exact() is False
            assert got._is_exact() == _scanned_exact(got)

    def test_cumulative_array_is_built_on_first_integral(self):
        windows = [
            Interval(s, e)
            for s, e in itertools.combinations_with_replacement(range(-1, 7), 2)
        ]
        for wide, claim in itertools.product(WIDES[::3], CLAIMS[::4]):
            got = wide + claim
            got.rate_at(0)
            assert got._cum is None  # point queries never build it
            for window in windows:
                value = got.integral(window)
                assert value == _eager_integral(got, window)
                assert value == _reference_integral(got, window)
            if not got.is_zero:
                assert got._cum is not None

    def test_infinite_window_never_builds_the_cumulative_array(self):
        got = RateProfile([(0, 2), (4, 0)]) + RateProfile([(1, 1), (2, 0)])
        assert got.integral(Interval(0, math.inf)) == 9
        assert got._cum is None
