"""Piecewise-constant rate profiles.

A resource term ``[r]_{xi}^{tau}`` contributes rate ``r`` of located type
``xi`` throughout interval ``tau``.  Aggregating every term of one located
type (the paper's *simplification* of resource sets) yields a
piecewise-constant step function of time: the **rate profile**.

:class:`RateProfile` is the canonical simplified form.  All resource-set
operations reduce to profile operations:

* union of terms              -> pointwise addition,
* relative complement         -> pointwise subtraction (partial: defined
                                 only when it never goes negative),
* the paper's ``U_s^d Theta`` -> restriction to a window,
* quantity over an interval   -> integration.

Profiles keep exact arithmetic when fed ints/Fractions; float inputs are
handled with a small tolerance on the non-negativity check.

Representation: a sorted tuple of ``(time, rate)`` breakpoints.  The rate
of the profile is 0 before the first breakpoint; each breakpoint's rate
holds from its time up to the next breakpoint's time; the final
breakpoint's rate holds forever (so a profile with finite support ends
with a rate-0 breakpoint).

Every decision procedure (Theorem 4 admission, schedule search, the
Figure 1 model checker) bottoms out here, so the point and window queries
are the system's hot path.  Each profile builds only the index its
queries read: the breakpoint times (for ``O(log n)`` bisection in
``rate_at``, ``clamp`` and the accumulation walks) on first query, and
the exact cumulative-integral array only when ``integral``'s exact
branch first needs it.  Whether a profile is exact is known by
construction for the results of exact operations and found by one scan
otherwise.  The binary algebra is an ``O(n + m)`` two-pointer merge
whose output is already sorted, so it is never re-sorted.  When one
operand of an exact ``+`` or ``subtract`` has finite support (its final
rate is 0, as every schedule claim's is), only that operand's span is
merged: the other profile's breakpoints before and after the span are
copied verbatim (their rates are unchanged there), so admitting a claim
of ``k`` breakpoints costs ``O(log n + k)`` Python work however large
the slack has grown.  The naive implementations are retained below as
``_reference_*`` oracles; ``tests/test_profile_fastpath.py`` and
``tests/test_profile_splice.py`` assert exact agreement over exhaustive
small-integer enumerations, and ``benchmarks/bench_profile_ops.py``
tracks the speedup and the per-admission latency curve.

Two arithmetic regimes share that surface.  **Exact** profiles (every
coordinate int/Fraction) stay on the scalar fast path above — the
correctness oracle chain (`_reference_*` -> scalar fast path) is never
perturbed by vectorization.  **Inexact** profiles (``is_exact()`` false
for some coordinate) batch onto numpy float64 vectors in
:mod:`repro.resources._vectorized` whenever every coordinate is
losslessly float64-representable; the kernels reproduce the scalar
float path's IEEE-754 operation order bit-for-bit (differentially
fuzzed in ``tests/test_profile_differential.py``).  One visible
canonicalization: vec-built profiles carry float coordinates, so an
int that rode along in an inexact profile comes back as the equal
float (``2 -> 2.0``).
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from operator import itemgetter
from numbers import Rational
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import InvalidTermError, UndefinedOperationError
from repro.intervals.interval import Interval, Time
from repro.intervals.intervalset import IntervalSet
from repro.resources import _vectorized as _vec

#: Tolerance used when float arithmetic is involved.  Exact numeric types
#: (int, Fraction) never need it.
EPSILON = 1e-9  # repro-lint: disable=float-literal -- the sanctioned float-tolerance boundary itself (see is_exact below)


def is_exact(value: object) -> bool:
    """Whether ``value`` is an exact numeric type (``int``/``Fraction``).

    Exact quantities compare exactly: applying the float ``EPSILON`` to
    them can misclassify a genuinely positive residue as zero.  Tolerance
    belongs only where a float has entered the computation.
    """
    return isinstance(value, Rational)


def exact_div(numerator: Time, denominator: Time) -> Time:
    """Division that stays exact for integer operands.

    Decision procedures compare their answers against brute-force oracles;
    exact arithmetic avoids spurious float disagreements.  Integer results
    are returned as ints, non-integer ratios of ints as Fractions.
    """
    if isinstance(numerator, int) and isinstance(denominator, int):
        from fractions import Fraction

        ratio = Fraction(numerator, denominator)
        return int(ratio) if ratio.denominator == 1 else ratio
    return numerator / denominator


_time_of = itemgetter(0)


def _normalise(points: Iterable[Tuple[Time, Time]]) -> tuple[Tuple[Time, Time], ...]:
    """Sort breakpoints, drop repeats at equal times (last wins), and merge
    consecutive breakpoints with equal rates."""
    ordered = sorted(points, key=lambda p: p[0])
    collapsed: list[Tuple[Time, Time]] = []
    for time, rate in ordered:
        if collapsed and collapsed[-1][0] == time:
            collapsed[-1] = (time, rate)
        else:
            collapsed.append((time, rate))
    return tuple(_merge_runs(collapsed))


def _merge_runs(
    points: Iterable[Tuple[Time, Time]], last: Time = 0
) -> list[Tuple[Time, Time]]:
    """Drop every breakpoint whose rate equals the rate before it, given
    the rate ``last`` in effect before the first one.  With the default
    ``last = 0`` a leading zero-rate breakpoint is dropped too: the
    profile is zero before its first breakpoint anyway.  The input must
    already be sorted and unique in time (merge output is)."""
    merged: list[Tuple[Time, Time]] = []
    for point in points:
        rate = point[1]
        if rate != last:
            merged.append(point)
            last = rate
    return merged


def _validate(points: Iterable[Tuple[Time, Time]]) -> None:
    for time, rate in points:
        if isinstance(rate, float) and math.isnan(rate):
            raise InvalidTermError("profile rate must not be NaN")
        if rate < 0:
            raise InvalidTermError(f"profile rate must be >= 0, got {rate!r} at t={time!r}")


class RateProfile:
    """An immutable, piecewise-constant, non-negative function of time."""

    __slots__ = (
        "_pts", "_times", "_cum", "_exact", "_vt", "_vr", "_vok", "_rl"
    )

    def __init__(self, points: Iterable[Tuple[Time, Time]] = ()) -> None:
        pts = _normalise(points)
        _validate(pts)
        self._pts: Optional[tuple] = pts
        self._times: Optional[list] = None
        self._cum: Optional[list] = None
        self._exact: Optional[bool] = None
        self._vt = None
        self._vr = None
        self._vok: Optional[bool] = None
        self._rl: Optional[list] = None

    @property
    def _points(self) -> tuple[Tuple[Time, Time], ...]:
        """Canonical breakpoint tuples.

        Vec-built profiles carry their breakpoints as float64 arrays and
        materialize the tuples only when something actually needs them
        (equality, pickling, the scalar fallbacks): the hot admission
        chains — subtract, cap, integral, accumulation walks — stay on
        the arrays end to end."""
        pts = self._pts
        if pts is None:
            pts = tuple(zip(self._vt.tolist(), self._vr.tolist()))
            self._pts = pts
        return pts

    def _rates(self) -> list:
        """Rates by breakpoint position, built lazily (vec-built
        profiles read straight off the rate array)."""
        rl = self._rl
        if rl is None:
            if self._pts is None:
                rl = self._vr.tolist()
            else:
                rl = [r for _, r in self._pts]
            self._rl = rl
        return rl

    def _ensure_index(self) -> None:
        """Build the breakpoint times for bisection on first use (off
        the float64 array for vec-built profiles)."""
        if self._times is None:
            if self._pts is None:
                self._times = self._vt.tolist()
            else:
                self._times = [t for t, _ in self._pts]

    def _is_exact(self) -> bool:
        """Whether every coordinate is exact (so cumulative differences
        are drift-free and the scalar path is the reference-pinned one).
        Exact operations set this on their results; anything else is
        scanned once."""
        exact = self._exact
        if exact is None:
            exact = all(is_exact(t) and is_exact(r) for t, r in self._pts)
            self._exact = exact
        return exact

    @property
    def breakpoint_count(self) -> int:
        """Number of breakpoints, read off the array for vec-built
        profiles (the tuples are not materialised)."""
        pts = self._pts
        return len(pts) if pts is not None else len(self._vt)

    def _vector_index(self):
        """Float64 ``(times, rates)`` arrays for the vectorized kernels,
        or ``None`` when the profile is not losslessly representable
        (Fraction coordinates, huge ints) or numpy is unavailable."""
        if self._vok is None:
            if _vec.HAVE_NUMPY and _vec.points_safe(self._points):
                self._vt, self._vr = _vec.arrays_from_points(self._points)
                self._vok = True
            else:
                self._vok = False
        return (self._vt, self._vr) if self._vok else None

    def _vector_pair(self, other: "RateProfile"):
        """Operand arrays for a vectorized binary op, or ``None`` when
        the op must stay scalar.  Vectorization is auto-selected only
        when the operation is inexact — both operands exact means the
        scalar fast path (the reference-pinned oracle chain) answers."""
        if self._is_exact() and other._is_exact():
            return None
        va = self._vector_index()
        if va is None:
            return None
        vb = other._vector_index()
        if vb is None:
            return None
        return va, vb

    @classmethod
    def _from_float_arrays(cls, times, rates) -> "RateProfile":
        """Adopt normalised float64 arrays as a profile.

        Vec-kernel results only: the arrays are already sorted, unique
        in time, rate-merged, and validated, so construction skips
        ``_normalise`` and pre-seeds both the scalar index and the
        vector index."""
        if len(times) == 0:
            return _ZERO
        profile = cls.__new__(cls)
        profile._pts = None  # materialized on demand from the arrays
        profile._times = None
        profile._cum = None  # only consulted on the exact path
        profile._exact = False
        profile._vt = times
        profile._vr = rates
        profile._vok = True
        profile._rl = None
        return profile

    @classmethod
    def _adopt(
        cls,
        pts: tuple,
        exact: bool,
        times: Optional[list] = None,
        rates: Optional[list] = None,
    ) -> "RateProfile":
        """Adopt canonical breakpoint tuples (sorted, unique in time,
        rate-merged) without re-normalising, with whatever parts of the
        index the caller already holds.  Inexact points are validated;
        exact ones come from validated operands by exact arithmetic
        whose negative results the caller has already refused."""
        if not pts:
            return _ZERO
        if not exact:
            _validate(pts)
        profile = cls.__new__(cls)
        profile._pts = pts
        profile._times = times
        profile._cum = None
        profile._exact = exact
        profile._vt = None
        profile._vr = None
        profile._vok = None
        profile._rl = rates
        return profile

    def __reduce__(self):
        # Serialize the canonical breakpoints only: the lazy scalar and
        # vector indexes are caches, rebuilt on demand after unpickling
        # (keeps checkpoint payloads small and independent of which
        # queries happened to run before the snapshot).
        return (RateProfile, (self._points,))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, rate: Time, window: Interval) -> "RateProfile":
        """Rate ``rate`` throughout ``window``, zero elsewhere."""
        if window.is_empty or rate == 0:
            return _ZERO
        if math.isinf(window.end):
            return cls(((window.start, rate),))
        return cls(((window.start, rate), (window.end, 0)))

    @classmethod
    def from_segments(cls, segments: Iterable[Tuple[Interval, Time]]) -> "RateProfile":
        """Sum of constant segments (overlaps add, as in simplification).

        Equivalent to folding :meth:`constant` profiles through ``+`` but
        built by a single breakpoint sweep, so aggregating ``n`` segments
        is ``O(n log n)`` instead of quadratic repeated addition.
        """
        live: list[Tuple[Time, Time, Time]] = []  # (start, end, rate)
        exact = True
        for window, rate in segments:
            if window.is_empty or rate == 0:
                continue
            if rate < 0 or (isinstance(rate, float) and math.isnan(rate)):
                # Match the validation the constant()-fold performed.
                return _reference_from_segments([(window, rate)])
            if not (is_exact(rate) and is_exact(window.start) and is_exact(window.end)):
                exact = False
            live.append((window.start, window.end, rate))
        if not live:
            return _ZERO
        if not exact:
            if _vec.HAVE_NUMPY and all(
                _vec.coordinate_safe(start)
                and _vec.coordinate_safe(end)
                and _vec.coordinate_safe(rate)
                for start, end, rate in live
            ):
                return cls._from_float_arrays(*_vec.from_segments(live))
            # Float rates: per-breakpoint left-fold keeps bit-identical
            # results with the repeated-addition definition.
            return cls.sum(
                cls.constant(rate, Interval(start, end)) for start, end, rate in live
            )
        events: list[Tuple[Time, Time]] = []
        for start, end, rate in live:
            events.append((start, rate))
            if not math.isinf(end):
                events.append((end, -rate))
        events.sort(key=lambda e: e[0])
        points: list[Tuple[Time, Time]] = []
        level: Time = 0
        index, count = 0, len(events)
        while index < count:
            t = events[index][0]
            while index < count and events[index][0] == t:
                level = level + events[index][1]
                index += 1
            points.append((t, level))
        return cls._adopt(tuple(_merge_runs(points)), True)

    @classmethod
    def sum(cls, profiles: Iterable["RateProfile"]) -> "RateProfile":
        """Pointwise sum of many profiles via one k-way breakpoint merge.

        Equivalent to folding through ``+`` (the per-breakpoint rate sums
        keep the fold's left-to-right association, so float results do not
        drift from the pairwise definition) but visits every breakpoint
        once instead of once per partial sum.
        """
        live = [p for p in profiles if not p.is_zero]
        if not live:
            return _ZERO
        if len(live) == 1:
            return live[0]
        exact = all(p._is_exact() for p in live)
        if not exact:
            arrays = [p._vector_index() for p in live]
            if all(a is not None for a in arrays):
                return cls._from_float_arrays(*_vec.sum_profiles(arrays))
        point_lists = [p._points for p in live]
        times = sorted({t for pts in point_lists for t, _ in pts})
        rates: list[Time] = [0] * len(live)
        cursors = [0] * len(live)
        points: list[Tuple[Time, Time]] = []
        for t in times:
            for k, pts in enumerate(point_lists):
                i = cursors[k]
                while i < len(pts) and pts[i][0] <= t:
                    rates[k] = pts[i][1]
                    i += 1
                cursors[k] = i
            level: Time = 0
            for rate in rates:
                level = level + rate
            points.append((t, level))
        return cls._adopt(tuple(_merge_runs(points)), exact)

    @classmethod
    def zero(cls) -> "RateProfile":
        return _ZERO

    # ------------------------------------------------------------------
    # Point and window queries
    # ------------------------------------------------------------------
    @property
    def breakpoints(self) -> tuple[Tuple[Time, Time], ...]:
        """The canonical ``(time, rate)`` breakpoints."""
        return self._points

    @property
    def is_zero(self) -> bool:
        pts = self._pts
        if pts is None:
            return False  # vec-built profiles are never empty
        return not pts

    def rate_at(self, t: Time) -> Time:
        """The rate in effect at time ``t`` (``O(log n)``)."""
        if self.is_zero:
            return 0
        self._ensure_index()
        i = bisect_right(self._times, t) - 1
        return self._rates()[i] if i >= 0 else 0

    def rates_at(self, ts: Sequence[Time]) -> List[Time]:
        """Batch :meth:`rate_at`: the rate in effect at each query time.

        One vectorized bisection over all queries when both the profile
        and the query times are float64-safe; the results are the stored
        rate objects either way, identical to mapping :meth:`rate_at`.
        """
        if self.is_zero:
            return [0] * len(ts)
        if _vec.HAVE_NUMPY and all(_vec.coordinate_safe(t) for t in ts):
            va = self._vector_index()
            if va is not None:
                rates = self._rates()
                return [
                    rates[i] if i >= 0 else 0
                    for i in _vec.rate_indices(va, ts).tolist()
                ]
        return [self.rate_at(t) for t in ts]

    def segments(self) -> Iterator[Tuple[Interval, Time]]:
        """Maximal constant-rate segments with positive rate.

        A trailing positive rate yields a segment ending at ``math.inf``.
        """
        for (t0, rate), nxt in itertools.zip_longest(
            self._points, self._points[1:], fillvalue=None
        ):
            if rate == 0:
                continue
            end = nxt[0] if nxt is not None else math.inf
            yield Interval(t0, end), rate

    @property
    def support(self) -> IntervalSet:
        """Where the rate is positive."""
        return IntervalSet(window for window, _ in self.segments())

    @property
    def horizon(self) -> Time:
        """Last breakpoint time (0 for the zero profile).  Past the
        horizon the rate is constant (usually zero)."""
        pts = self._pts
        if pts is not None:
            return pts[-1][0] if pts else 0
        return self._vt[-1].item()  # vec-built: never empty

    @property
    def peak_rate(self) -> Time:
        """Maximum rate anywhere."""
        return max((rate for _, rate in self._points), default=0)

    def _cumulative(self, t: Time) -> Time:
        """Integral from before the first breakpoint up to ``t`` (exact
        profiles only; callers guard), off the cumulative-integral array
        built on first use."""
        times, cum = self._times, self._cum
        if cum is None:
            pts = self._pts
            cum = [0] * len(pts)
            for i in range(1, len(pts)):
                t_prev, r_prev = pts[i - 1]
                cum[i] = cum[i - 1] + r_prev * (times[i] - t_prev)
            self._cum = cum
        i = bisect_right(times, t) - 1
        if i < 0:
            return 0
        rate = self._rates()[i]
        if rate == 0 or times[i] == t:
            return cum[i]
        return cum[i] + rate * (t - times[i])

    def integral(self, window: Interval) -> Time:
        """Total quantity available during ``window``:
        the paper's ``r x tau`` generalised to step functions.

        Exact profiles answer in ``O(log n)`` from the cumulative-integral
        array; float profiles fall back to a bisected segment scan that
        reproduces the reference summation order bit-for-bit.
        """
        if window.is_empty or self.is_zero:
            return 0
        self._ensure_index()
        start, end = window.start, window.end
        if self._is_exact() and is_exact(start) and is_exact(end):
            return self._cumulative(end) - self._cumulative(start)
        if _vec.coordinate_safe(start) and _vec.coordinate_safe(end):
            va = self._vector_index()
            if va is not None:
                return _vec.integral(va, start, end)
        times = self._times
        rates = self._rates()
        lo = bisect_right(times, start) - 1
        if lo < 0:
            lo = 0
        hi = bisect_left(times, end)
        total: Time = 0
        for i in range(lo, hi):
            rate = rates[i]
            if rate == 0:
                continue
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < len(times) else math.inf
            # Tie-break like ``max``/``min`` (first operand wins) so a
            # breakpoint coinciding with a window edge under a different
            # numeric type (``1`` vs ``1.0`` vs ``Fraction(1)``) picks
            # the same operand — and hence the same rounding — as the
            # reference oracle's ``segment.intersection(window)``.
            s = seg_start if seg_start >= start else start
            e = seg_end if seg_end <= end else end
            if e > s:
                total += rate * (e - s)
        return total

    def min_rate(self, window: Interval) -> Time:
        """Minimum rate over a non-empty window (0 if any gap)."""
        if window.is_empty:
            raise UndefinedOperationError("min_rate over an empty window")
        if self.is_zero:
            return 0
        self._ensure_index()
        times = self._times
        start, end = window.start, window.end
        if start < times[0]:
            return 0
        lo = bisect_right(times, start) - 1
        hi = bisect_left(times, end)
        rates = self._rates()
        return min(rates[i] for i in range(lo, hi))

    def earliest_accumulation(self, start: Time, quantity: Time) -> Optional[Time]:
        """The earliest ``t >= start`` with ``integral((start, t)) >= quantity``.

        Returns ``None`` when the quantity can never be accumulated.  This
        is the primitive behind the greedy breakpoint search of Theorem 2.
        Bisects to the first segment past ``start`` and walks from there,
        so the cost is ``O(log n + k)`` for ``k`` segments actually drawn
        on (the reference walked every segment from the origin).
        """
        if quantity <= 0:
            return start
        if self.is_zero:
            return None
        self._ensure_index()
        times = self._times
        rates = self._rates()
        remaining = quantity
        lo = bisect_right(times, start) - 1
        if lo < 0:
            lo = 0
        for i in range(lo, len(rates)):
            rate = rates[i]
            if rate == 0:
                continue
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < len(times) else math.inf
            if seg_end <= start:
                continue
            effective_start = max(start, seg_start)
            capacity = rate * (seg_end - effective_start)
            if capacity >= remaining:
                return effective_start + exact_div(remaining, rate)
            remaining -= capacity
        return None

    def latest_accumulation(self, end: Time, quantity: Time) -> Optional[Time]:
        """The latest ``t <= end`` with ``integral((t, end)) >= quantity``.

        The time-reversed dual of :meth:`earliest_accumulation`; the
        primitive behind as-late-as-possible (ALAP) scheduling.  Returns
        ``None`` when the quantity cannot be accumulated before ``end``.
        """
        if quantity <= 0:
            return end
        if self.is_zero:
            return None
        self._ensure_index()
        times = self._times
        rates = self._rates()
        remaining = quantity
        hi = bisect_left(times, end)  # segments hi.. start at or after end
        for i in range(hi - 1, -1, -1):
            rate = rates[i]
            if rate == 0:
                continue
            seg_start = times[i]
            seg_end = times[i + 1] if i + 1 < len(times) else math.inf
            effective_end = min(end, seg_end)
            capacity = rate * (effective_end - seg_start)
            if capacity >= remaining:
                return effective_end - exact_div(remaining, rate)
            remaining -= capacity
        return None

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _merged_rates(
        self,
        other: "RateProfile",
        span: Optional[Tuple[int, int, int, int]] = None,
    ) -> Iterator[Tuple[Time, Time, Time]]:
        """Two-pointer merge over both breakpoint lists: yields
        ``(time, self_rate, other_rate)`` at every breakpoint of either
        profile, in time order — ``O(n + m)`` where the naive
        rate_at-per-breaktime evaluation was quadratic.

        ``span = (i, i_end, j, j_end)`` merges only ``self``'s
        breakpoints ``i:i_end`` and ``other``'s ``j:j_end``, each side
        entering at the rate of its breakpoint just before the slice."""
        a, b = self._points, other._points
        i, i_end, j, j_end = span or (0, len(a), 0, len(b))
        ra: Time = a[i - 1][1] if i else 0
        rb: Time = b[j - 1][1] if j else 0
        while i < i_end or j < j_end:
            if j >= j_end or (i < i_end and a[i][0] <= b[j][0]):
                t = a[i][0]
            else:
                t = b[j][0]
            if i < i_end and a[i][0] == t:
                ra = a[i][1]
                i += 1
            if j < j_end and b[j][0] == t:
                rb = b[j][1]
                j += 1
            yield t, ra, rb

    def _span_of(self, narrow: "RateProfile") -> Tuple[int, int]:
        """Positions ``lo:hi`` of this profile's breakpoints that lie in
        ``[first, last]``, the span of ``narrow``'s breakpoints
        (``O(log n)``; bisects the tuples when no index is built)."""
        first, last = narrow._pts[0][0], narrow._pts[-1][0]
        times = self._times
        if times is None:
            pts = self._pts
            return (
                bisect_left(pts, first, key=_time_of),
                bisect_right(pts, last, key=_time_of),
            )
        return bisect_left(times, first), bisect_right(times, last)

    def _combine(
        self,
        other: "RateProfile",
        combine,
        exact: bool,
        narrow: Optional["RateProfile"] = None,
    ) -> "RateProfile":
        """The profile with rate ``combine(t, self_rate, other_rate)``,
        from one merge of the breakpoints.

        ``narrow`` is an operand with finite support outside whose span
        ``combine`` returns the other (wide) operand's rate unchanged.
        Only that span is merged; the wide operand's breakpoints before
        and after it are copied verbatim, and so are its times and rates
        index when built.  Without ``narrow`` everything is merged."""
        if narrow is None:
            wide, lo, hi = self, 0, len(self._points)
            span = None
        elif narrow is other:
            wide = self
            lo, hi = self._span_of(other)
            span = (lo, hi, 0, len(other._pts))
        else:
            wide = other
            lo, hi = other._span_of(self)
            span = (0, len(self._pts), lo, hi)
        wpts = wide._points
        # Seeding the run merge with the rate the prefix ends on joins
        # the leading seam (and drops a leading zero when there is no
        # prefix).  The trailing seam needs nothing: the window ends at
        # the narrow operand's last breakpoint, where the result is back
        # to the wide rate, which differs from the next wide breakpoint's.
        window = _merge_runs(
            ((t, combine(t, ra, rb)) for t, ra, rb in self._merged_rates(other, span)),
            wpts[lo - 1][1] if lo else 0,
        )
        pts = wpts[:lo] + tuple(window) + wpts[hi:]
        times = rates = None
        if narrow is not None and wide._times is not None:
            times = wide._times[:lo] + [t for t, _ in window] + wide._times[hi:]
            if wide._rl is not None:
                rates = wide._rl[:lo] + [r for _, r in window] + wide._rl[hi:]
        return RateProfile._adopt(pts, exact, times, rates)

    def __add__(self, other: "RateProfile") -> "RateProfile":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        pair = self._vector_pair(other)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.add(*pair))
        exact = self._is_exact() and other._is_exact()
        narrow = None
        if exact:
            # Splice the operand with finite support, the shorter if both.
            if other._pts[-1][1] == 0 and (
                self._pts[-1][1] != 0 or len(other._pts) <= len(self._pts)
            ):
                narrow = other
            elif self._pts[-1][1] == 0:
                narrow = self
        return self._combine(other, _add_rates, exact, narrow)

    def subtract(self, other: "RateProfile", *, tolerance: float = EPSILON) -> "RateProfile":
        """Pointwise subtraction; raises when the result would go negative.

        Mirrors the paper's rule that resource terms cannot be negative:
        the relative complement is a *partial* operation.  ``tolerance``
        absorbs float dust only: an exact negative value, however small,
        is a genuine domain violation and always raises.
        """
        if other.is_zero:
            return self
        # Vectorize only under a sub-unit tolerance: integer-valued
        # differences are exact for the scalar path (they raise however
        # small), and any |diff| >= 1 also exceeds a sub-unit tolerance,
        # so the float64 kernel cannot mistake one for snappable dust.
        pair = self._vector_pair(other) if tolerance < 1 else None
        if pair is not None:
            result = _vec.subtract(*pair, tolerance)
            if result[0] == "negative":
                _, t, ra, rb = result
                raise UndefinedOperationError(
                    f"subtraction would make the rate negative at t={t!r} "
                    f"({ra!r} - {rb!r})"
                )
            if result[0] == "nan":
                raise InvalidTermError("profile rate must not be NaN")
            return RateProfile._from_float_arrays(result[1], result[2])

        def difference(t: Time, ra: Time, rb: Time) -> Time:
            value = ra - rb
            if value < 0:
                if not is_exact(value) and -value <= tolerance:
                    return 0
                raise UndefinedOperationError(
                    f"subtraction would make the rate negative at t={t!r} "
                    f"({ra!r} - {rb!r})"
                )
            return value

        exact = self._is_exact() and other._is_exact()
        # Outside a finite-support subtrahend's span it is 0, so nothing
        # there can go negative and the minuend carries over unchanged.
        narrow = other if exact and other._pts[-1][1] == 0 else None
        return self._combine(other, difference, exact, narrow)

    def __sub__(self, other: "RateProfile") -> "RateProfile":
        return self.subtract(other)

    def saturating_sub(self, other: "RateProfile") -> "RateProfile":
        """Pointwise ``max(0, self - other)``.

        Unlike :meth:`subtract` this is total: where ``other`` exceeds
        ``self`` the result is clamped at zero.  Used for *revocation* —
        capacity vanishing regardless of what was promised against it —
        not for the paper's (partial) relative complement.
        """
        if other.is_zero:
            return self
        pair = self._vector_pair(other)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.saturating_sub(*pair))
        return self._combine(
            other,
            lambda t, ra, rb: max(0, ra - rb),
            self._is_exact() and other._is_exact(),
        )

    def scale(self, factor: Time) -> "RateProfile":
        """The profile with every rate multiplied by ``factor >= 0``."""
        if factor < 0:
            raise InvalidTermError("scale factor must be >= 0")
        if factor == 0:
            return _ZERO
        return RateProfile((t, rate * factor) for t, rate in self._points)

    def clamp(self, window: Interval) -> "RateProfile":
        """The profile restricted to ``window`` (zero outside): the paper's
        ``U_s^d`` applied to one located type."""
        if window.is_empty or self.is_zero:
            return _ZERO
        self._ensure_index()
        times = self._times
        points: list[Tuple[Time, Time]] = [(window.start, self.rate_at(window.start))]
        lo = bisect_right(times, window.start)
        hi = bisect_left(times, window.end)
        points.extend(self._points[lo:hi])
        if not math.isinf(window.end):
            points.append((window.end, 0))
        exact = (
            self._is_exact()
            and is_exact(window.start)
            and (math.isinf(window.end) or is_exact(window.end))
        )
        return RateProfile._adopt(tuple(_merge_runs(points)), exact)

    def shift(self, delta: Time) -> "RateProfile":
        """The profile translated in time by ``delta``."""
        return RateProfile((t + delta, rate) for t, rate in self._points)

    def cap(self, ceiling: "RateProfile") -> "RateProfile":
        """Pointwise minimum with another profile."""
        if self.is_zero or ceiling.is_zero:
            return _ZERO
        pair = self._vector_pair(ceiling)
        if pair is not None:
            return RateProfile._from_float_arrays(*_vec.cap(*pair))
        return self._combine(
            ceiling,
            lambda t, ra, rb: min(ra, rb),
            self._is_exact() and ceiling._is_exact(),
        )

    def dominates(self, other: "RateProfile") -> bool:
        """Pointwise ``self >= other`` everywhere."""
        if other.is_zero:
            return True
        pair = self._vector_pair(other)
        if pair is not None:
            return _vec.dominates(*pair)
        for _, ra, rb in self._merged_rates(other):
            if ra < rb:
                return False
        return True

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RateProfile):
            return NotImplemented
        return self._points == other._points

    def __hash__(self) -> int:
        return hash(self._points)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        inner = ", ".join(f"({t}, {r})" for t, r in self._points)
        return f"RateProfile([{inner}])"


_ZERO = RateProfile(())


def _add_rates(t: Time, ra: Time, rb: Time) -> Time:
    return ra + rb


def profile_from_points(points: Sequence[Tuple[Time, Time]]) -> RateProfile:
    """Public helper: build a profile from raw breakpoints."""
    return RateProfile(points)


# ----------------------------------------------------------------------
# Reference oracles.
#
# The pre-optimisation implementations, retained verbatim so differential
# tests and benchmarks can pin the fast paths to them: over exhaustive
# small-integer enumerations the fast result must equal the reference
# result *exactly* (not approximately), so the tier-1 theorem benchmarks
# cannot drift.
# ----------------------------------------------------------------------

def _reference_rate_at(profile: RateProfile, t: Time) -> Time:
    """Linear-scan ``rate_at``."""
    rate: Time = 0
    for time, value in profile.breakpoints:
        if time > t:
            break
        rate = value
    return rate


def _reference_integral(profile: RateProfile, window: Interval) -> Time:
    """Full segment-scan ``integral``."""
    if window.is_empty or profile.is_zero:
        return 0
    total: Time = 0
    for segment, rate in profile.segments():
        common = segment.intersection(window)
        if not common.is_empty:
            total += rate * common.duration
    return total


def _reference_min_rate(profile: RateProfile, window: Interval) -> Time:
    """Full segment-scan ``min_rate`` with explicit coverage accounting.

    Coverage is tracked as a frontier over the (time-ordered, gap-free
    within support) segments rather than by summing durations: a sum of
    mixed float/Fraction durations accrues rounding dust and can declare
    a fully-covered window uncovered (returning a spurious 0).  The
    frontier only *compares* coordinates, which is exact for every
    supported numeric type.
    """
    if window.is_empty:
        raise UndefinedOperationError("min_rate over an empty window")
    lowest: Optional[Time] = None
    frontier = window.start
    for segment, rate in profile.segments():
        common = segment.intersection(window)
        if common.is_empty:
            continue
        if common.start <= frontier and common.end > frontier:
            frontier = common.end
        lowest = rate if lowest is None else min(lowest, rate)
    if lowest is None or frontier < window.end:
        return 0
    return lowest


def _reference_earliest_accumulation(
    profile: RateProfile, start: Time, quantity: Time
) -> Optional[Time]:
    """Origin-anchored segment walk for the earliest accumulation time."""
    if quantity <= 0:
        return start
    remaining = quantity
    for segment, rate in profile.segments():
        if segment.end <= start:
            continue
        effective_start = max(start, segment.start)
        capacity = rate * (segment.end - effective_start)
        if capacity >= remaining:
            return effective_start + exact_div(remaining, rate)
        remaining -= capacity
    return None


def _reference_add(left: RateProfile, right: RateProfile) -> RateProfile:
    """Pointwise addition by rate_at evaluation at merged breaktimes."""
    if left.is_zero:
        return right
    if right.is_zero:
        return left
    times = sorted(
        {t for t, _ in left.breakpoints} | {t for t, _ in right.breakpoints}
    )
    return RateProfile(
        (t, _reference_rate_at(left, t) + _reference_rate_at(right, t))
        for t in times
    )


def _reference_subtract(left: RateProfile, right: RateProfile) -> RateProfile:
    """Pointwise subtraction by rate_at evaluation at merged breaktimes."""
    if right.is_zero:
        return left
    times = sorted(
        {t for t, _ in left.breakpoints} | {t for t, _ in right.breakpoints}
    )
    points: list[Tuple[Time, Time]] = []
    for t in times:
        value = _reference_rate_at(left, t) - _reference_rate_at(right, t)
        if value < 0:
            if not is_exact(value) and -value <= EPSILON:
                value = 0
            else:
                raise UndefinedOperationError(
                    f"subtraction would make the rate negative at t={t!r}"
                )
        points.append((t, value))
    return RateProfile(points)


def _reference_from_segments(
    segments: Iterable[Tuple[Interval, Time]]
) -> RateProfile:
    """Quadratic repeated-addition ``from_segments``."""
    profile = _ZERO
    for window, rate in segments:
        profile = _reference_add(profile, RateProfile.constant(rate, window))
    return profile
