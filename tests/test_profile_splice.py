"""Differential tests for the spliced ``+`` / ``subtract``.

When one operand of an addition or subtraction has finite support,
:class:`RateProfile` merges only that operand's span and copies the other
profile's breakpoints outside it verbatim.  These tests pin that path to
the retained ``_reference_add`` / ``_reference_subtract`` oracles over an
exhaustive small-integer enumeration and over ``Fraction`` coordinates,
and check the bookkeeping that rides along: exactness known by
construction, the spliced times/rates index, and the lazily built
cumulative-integral array.

Float64-safe inexact operands take the same splice in float form.  There
the spliced result must be exactly what the numpy kernels
(``_vectorized.add`` / ``_vectorized.subtract``) return for the whole
profiles: the same breakpoints with every coordinate a ``float``, the
same exceptions and messages — pinned over an exhaustive dyadic-float
enumeration, where every sum is exact in binary so the reference oracles
agree too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from repro.errors import InvalidTermError, UndefinedOperationError
from repro.intervals import Interval
from repro.resources import RateProfile
from repro.resources import _vectorized as _vec
from repro.resources.profile import (
    EPSILON,
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


# ----------------------------------------------------------------------
# Float splice: bit-identical to the numpy kernels
# ----------------------------------------------------------------------

FLOAT_WIDE_TIMES = (0.0, 0.5, 1.5, 2.0)
FLOAT_WIDE_RATES = (0.0, 0.5, 1.5)
FLOAT_CLAIM_TIMES = (-0.5, 0.0, 0.5, 1.0, 2.0, 2.5)
FLOAT_CLAIM_RATES = (0.5, 1.5)


def float_wides():
    for combo in itertools.product(FLOAT_WIDE_RATES, repeat=len(FLOAT_WIDE_TIMES)):
        yield RateProfile(zip(FLOAT_WIDE_TIMES, combo))
    # Mixed int/float operands: converted to float form on first splice.
    yield RateProfile([(0, 1.5), (1, 2), (2, 0)])
    yield RateProfile([(0, 2), (1, 1), (3, 2)])  # exact, infinite support


FLOAT_WIDES = tuple(float_wides())
FLOAT_CLAIMS = tuple(claims(FLOAT_CLAIM_TIMES, FLOAT_CLAIM_RATES)) + (
    RateProfile([(0.5, 1), (2, 0)]),  # an int rate and time in a claim
)


def _fresh(profile: RateProfile) -> RateProfile:
    """An unindexed copy, so kernel expectations build no arrays on the
    operands under test."""
    return RateProfile(profile.breakpoints)


def _kernel_add(left, right):
    arrays = _fresh(left)._vector_index(), _fresh(right)._vector_index()
    return RateProfile._from_float_arrays(*_vec.add(*arrays))


def _kernel_subtract(left, right, tolerance=EPSILON):
    """The kernel's outcome: the profile, or the exception it maps to."""
    arrays = _fresh(left)._vector_index(), _fresh(right)._vector_index()
    result = _vec.subtract(*arrays, tolerance)
    if result[0] == "negative":
        _, t, ra, rb = result
        return UndefinedOperationError(
            f"subtraction would make the rate negative at t={t!r} "
            f"({ra!r} - {rb!r})"
        )
    if result[0] == "nan":
        return InvalidTermError("profile rate must not be NaN")
    return RateProfile._from_float_arrays(result[1], result[2])


def _assert_float_form(profile: RateProfile) -> None:
    assert all(
        type(t) is float and type(r) is float for t, r in profile.breakpoints
    ), profile.breakpoints
    assert profile._vt is None and profile._vok is None  # no arrays built


def _assert_same_outcome(got_fn, expected) -> None:
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as caught:
            got_fn()
        assert str(caught.value) == str(expected)
        return
    got = got_fn()
    assert got.breakpoints == expected.breakpoints
    if not got.is_zero:
        _assert_float_form(got)
        _assert_canonical(got)


class TestFloatSpliceMatchesKernels:
    @pytest.mark.parametrize("indexed", [False, True])
    def test_add_both_orders(self, indexed):
        for wide, claim in itertools.product(FLOAT_WIDES, FLOAT_CLAIMS):
            if wide.is_zero:
                continue  # ``+`` returns the other operand as it is
            if indexed:
                wide.rate_at(0)
                wide._rates()
            expected = _kernel_add(wide, claim)
            assert expected == _reference_add(wide, claim)
            _assert_same_outcome(lambda: wide + claim, expected)
            _assert_same_outcome(lambda: claim + wide, expected)

    @pytest.mark.parametrize("indexed", [False, True])
    def test_subtract(self, indexed):
        for wide, claim in itertools.product(FLOAT_WIDES, FLOAT_CLAIMS):
            if indexed:
                wide.rate_at(0)
                wide._rates()
            expected = _kernel_subtract(wide, claim)
            reference = _subtract_or_error(wide, claim)
            if isinstance(expected, Exception):
                assert reference is UndefinedOperationError
            else:
                assert expected == reference
            _assert_same_outcome(lambda: wide.subtract(claim), expected)

    def test_vec_built_operands_splice_too(self):
        wide = RateProfile.sum(
            [RateProfile([(0.0, 1.5), (2.0, 0.0)]), RateProfile([(1.0, 0.5)])]
        )
        assert wide._pts is None  # kernel-built
        claim = RateProfile([(0.5, 0.5), (1.5, 0.0)])
        got = wide.subtract(claim)
        assert got.breakpoints == _kernel_subtract(wide, claim).breakpoints
        _assert_float_form(got)

    def test_claims_added_then_subtracted_round_trip(self):
        for wide, claim in itertools.product(FLOAT_WIDES[::7], FLOAT_CLAIMS):
            back = (wide + claim).subtract(claim)
            assert back == wide
            _assert_float_form(back)


class TestFloatSpliceEdges:
    def test_claims_at_the_seams(self):
        wide = RateProfile([(0.0, 2.5), (2.0, 1.5), (6.0, 0.0)])
        for claim in (
            RateProfile([(2.0, 1.0), (4.0, 0.0)]),  # starts on a breakpoint
            RateProfile([(1.0, 1.0), (2.0, 0.0)]),  # ends on a breakpoint
            RateProfile([(0.0, 1.5), (6.0, 0.0)]),  # the whole support
        ):
            _assert_same_outcome(lambda: wide + claim, _kernel_add(wide, claim))
            _assert_same_outcome(
                lambda: wide.subtract(claim), _kernel_subtract(wide, claim)
            )

    def test_claims_outside_the_support(self):
        wide = RateProfile([(3.0, 2.0), (5.0, 0.0)])
        before = RateProfile([(0.0, 1.0), (2.0, 0.0)])
        after = RateProfile([(7.0, 1.0), (9.0, 0.0)])
        assert (wide + before).breakpoints == (
            (0.0, 1.0), (2.0, 0.0), (3.0, 2.0), (5.0, 0.0)
        )
        assert (wide + after).breakpoints == (
            (3.0, 2.0), (5.0, 0.0), (7.0, 1.0), (9.0, 0.0)
        )
        with pytest.raises(UndefinedOperationError) as caught:
            wide.subtract(before)
        assert str(caught.value) == str(_kernel_subtract(wide, before))

    def test_subtracting_down_to_zero(self):
        wide = RateProfile([(1.0, 2.5), (3.0, 4.0), (7.0, 0.0)])
        assert wide.subtract(wide).is_zero
        got = wide.subtract(RateProfile([(1.0, 2.5), (3.0, 0.0)]))
        assert got.breakpoints == ((3.0, 4.0), (7.0, 0.0))

    def test_tolerance_dust_snaps_to_float_zero(self):
        wide = RateProfile([(0.0, 1.0), (4.0, 0.0)])
        dusty = RateProfile([(1.0, 1.0 + 1e-12), (2.0, 0.0)])
        got = wide.subtract(dusty)
        assert got.breakpoints == ((0.0, 1.0), (1.0, 0.0), (2.0, 1.0), (4.0, 0.0))
        assert got.breakpoints == _kernel_subtract(wide, dusty).breakpoints
        _assert_float_form(got)

    def test_negative_rate_message_keeps_float_operands(self):
        wide = RateProfile([(0, 3), (2, 1), (8, 0)])  # exact minuend
        claim = RateProfile([(1, 2.0), (4, 0)])
        with pytest.raises(UndefinedOperationError) as caught:
            wide.subtract(claim)
        assert str(caught.value) == (
            "subtraction would make the rate negative at t=2.0 (1.0 - 2.0)"
        )
        assert str(caught.value) == str(_kernel_subtract(wide, claim))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_inf_minus_inf_is_invalid(self):
        wide = RateProfile([(0.0, math.inf), (4.0, 0.0)])
        claim = RateProfile([(1.0, math.inf), (2.0, 0.0)])
        assert isinstance(_kernel_subtract(wide, claim), InvalidTermError)
        with pytest.raises(InvalidTermError, match="NaN"):
            wide.subtract(claim)

    def test_unit_tolerance_keeps_integer_differences_exact(self):
        """Under a tolerance >= 1 inexact operands stay on the scalar
        path, where an int - int difference raises however small."""
        wide = RateProfile([(0, 2), (4, 0)])
        claim = RateProfile([(1, 3), (2, 0.5), (3, 0)])
        with pytest.raises(UndefinedOperationError):
            wide.subtract(claim, tolerance=1.0)

    def test_unsafe_coordinates_are_not_spliced(self, monkeypatch):
        def refuse(self, narrow):
            raise AssertionError("spliced a float64-unsafe operand")

        monkeypatch.setattr(RateProfile, "_span_of", refuse)
        wide = RateProfile([(0, Fraction(5, 2)), (4, 0)])
        claim = RateProfile([(1, 0.5), (2, 0)])
        assert wide + claim == _reference_add(wide, claim)
        assert wide.subtract(claim) == _reference_subtract(wide, claim)


class TestFloatForm:
    def test_conversion_happens_once_and_is_kept(self):
        wide = RateProfile([(0, 4), (5, 2), (9, 0)])  # exact
        first = wide + RateProfile([(1, 0.5), (3, 0)])
        twin = wide._flt
        assert isinstance(twin, RateProfile) and twin == wide
        _assert_float_form(twin)
        wide.subtract(RateProfile([(6, 1.5), (7, 0)]))
        assert wide._flt is twin
        assert wide.breakpoints == ((0, 4), (5, 2), (9, 0))  # untouched
        assert first._flt is True  # float form by construction

    def test_exact_splices_never_convert(self):
        wide = RateProfile([(0, 4), (5, 2), (9, 0)])
        got = wide.subtract(RateProfile([(1, 1), (3, 0)]))
        assert wide._flt is None and got._flt is None
        assert got._exact is True

    def test_a_float_splice_chain_never_builds_arrays(self):
        """Neither deciding to splice nor querying the result builds the
        O(n) float64 arrays."""
        slack = RateProfile([(0.0, 60.0), (400.0, 0.0)])
        claims_ = [
            RateProfile([(float(s), 1.5), (float(s + 8), 0.0)])
            for s in range(0, 380, 3)
        ]
        committed = RateProfile.zero()
        for claim in claims_:
            window = Interval(claim.breakpoints[0][0], claim.horizon)
            slack.earliest_accumulation(window.start, 1.0)
            slack.integral(window)
            slack.rates_at([window.start, window.end])
            slack.clamp(window)
            slack = slack.subtract(claim)
            committed = committed + claim
        for profile in (slack, committed, *claims_):
            assert profile._vt is None and profile._vok is None
        _assert_float_form(slack)
        assert slack == _reference_subtract(
            RateProfile([(0.0, 60.0), (400.0, 0.0)]), committed
        )
