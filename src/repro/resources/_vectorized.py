"""Vectorized (numpy) kernels for the *inexact* profile path's full merges.

:class:`~repro.resources.profile.RateProfile` keeps two regimes: exact
coordinates (int/Fraction) run the scalar reference-pinned fast path,
and inexact (float-contaminated) profiles compute in float64.  An
inexact ``+``/``subtract`` with a finite-support operand (every claim
admission subtracts from the slack) is spliced in pure Python and never
reaches this module; the splice must return exactly what :func:`add` /
:func:`subtract` would.  The kernels here serve the full merges:
``+``/``subtract`` without a finite-support operand, ``saturating_sub``,
``cap``, ``dominates``, ``sum`` and ``from_segments``, plus ``rate_at``
batches and window integrals on profiles that already carry arrays.
This is the only place in the tree allowed to import numpy (enforced by
the ``layering`` lint rule's third-party pin), so the exactness boundary
stays auditable.

Bit-identity contract: every kernel reproduces the scalar float path's
IEEE-754 operation order exactly —

* elementwise add/subtract/min/compare are order-free,
* per-time rate sums fold left-to-right over the operand list (matching
  ``RateProfile.sum``'s per-breakpoint accumulation), and
* window integrals accumulate per-segment contributions in time order
  via ``cumsum`` (sequential prefix sums, never pairwise reduction).

``tests/test_profile_differential.py`` fuzzes this agreement against
the ``_reference_*`` oracles.

Coordinates are converted to float64, so the kernels only accept
profiles whose coordinates are floats or integers small enough to be
exactly representable (``|v| <= 2**53``); anything else — Fractions
above all — stays on the scalar path.  Integer coordinates come back
as floats (``2 -> 2.0``): numerically equal, but callers that branch
on :func:`~repro.resources.profile.is_exact` must treat vec-built
profiles as inexact, which they are by construction.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - numpy is in the baked image; keep a soft gate
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: Largest integer magnitude exactly representable in float64.
_MAX_SAFE_INT = 2 ** 53

HAVE_NUMPY = _np is not None


def coordinate_safe(value: object) -> bool:
    """Whether ``value`` converts to float64 without losing information."""
    if type(value) is float:
        return not math.isnan(value)
    if type(value) is int:
        return -_MAX_SAFE_INT <= value <= _MAX_SAFE_INT
    return False


def points_safe(points: Sequence[Tuple[object, object]]) -> bool:
    """Whether every breakpoint coordinate is float64-representable."""
    return all(
        coordinate_safe(t) and coordinate_safe(r) for t, r in points
    )


def arrays_from_points(points):
    """``(times, rates)`` float64 arrays for a breakpoint tuple."""
    times = _np.empty(len(points), dtype=_np.float64)
    rates = _np.empty(len(points), dtype=_np.float64)
    for i, (t, r) in enumerate(points):
        times[i] = t
        rates[i] = r
    return times, rates


def normalise_arrays(times, rates):
    """Array analogue of ``profile._normalise`` for already-sorted,
    duplicate-free times: merge consecutive equal rates, drop a leading
    zero-rate breakpoint."""
    n = len(times)
    if n == 0:
        return times, rates
    keep = _np.empty(n, dtype=bool)
    keep[0] = True
    _np.not_equal(rates[1:], rates[:-1], out=keep[1:])
    times = times[keep]
    rates = rates[keep]
    if len(rates) and rates[0] == 0.0:
        times = times[1:]
        rates = rates[1:]
    return times, rates


def _rates_at_times(ta, ra, times):
    """Operand rates at each of ``times``: the rate of the last
    breakpoint at or before each time, zero before the first (and
    everywhere for an empty — zero — operand)."""
    if len(ra) == 0:
        return _np.zeros(len(times), dtype=_np.float64)
    ia = _np.searchsorted(ta, times, side="right") - 1
    return _np.where(ia >= 0, ra[_np.maximum(ia, 0)], 0.0)


def merge(va, vb):
    """Union breaktimes plus each operand's rate at every breaktime.

    The vector analogue of ``RateProfile._merged_rates``: at time ``t``
    an operand's rate is that of its last breakpoint at or before ``t``
    (zero before the first).
    """
    ta, ra = va
    tb, rb = vb
    times = _np.union1d(ta, tb)
    return times, _rates_at_times(ta, ra, times), _rates_at_times(tb, rb, times)


def add(va, vb):
    times, ra, rb = merge(va, vb)
    return normalise_arrays(times, ra + rb)


def subtract(va, vb, tolerance):
    """Pointwise difference with the scalar path's negativity contract.

    Returns either ``("profile", times, rates)`` or
    ``("negative", time, minuend_rate, subtrahend_rate)`` for the first
    (in time order) rate that goes negative beyond ``tolerance`` — the
    caller raises with the same message the scalar path uses.  NaN rates
    (inf - inf) survive into the result; profile construction rejects
    them exactly as the scalar path does.
    """
    times, ra, rb = merge(va, vb)
    diff = ra - rb
    negative = diff < 0.0
    if negative.any():
        bad = negative & (-diff > tolerance)
        if bad.any():
            k = int(_np.argmax(bad))
            return (
                "negative",
                times[k].item(),
                ra[k].item(),
                rb[k].item(),
            )
        diff = _np.where(negative, 0.0, diff)
    if _np.isnan(diff).any():
        # inf - inf: the scalar path lets the NaN reach profile
        # construction, which rejects it; signal the caller to do the
        # same (negativity was already ruled out above, matching the
        # scalar path's raise order).
        return ("nan",)
    return ("profile",) + normalise_arrays(times, diff)


def saturating_sub(va, vb):
    times, ra, rb = merge(va, vb)
    diff = _np.maximum(ra - rb, 0.0)
    if _np.isnan(diff).any():
        # max(0, inf - inf): Python's max(0, nan) compares False and
        # keeps the 0, so the scalar path clamps the NaN away.
        diff = _np.where(_np.isnan(diff), 0.0, diff)
    return normalise_arrays(times, diff)


def cap(va, vb):
    times, ra, rb = merge(va, vb)
    return normalise_arrays(times, _np.minimum(ra, rb))


def dominates(va, vb) -> bool:
    _, ra, rb = merge(va, vb)
    return bool((ra >= rb).all())


def rate_indices(va, ts):
    """Breakpoint index in effect at each query time (-1: before all)."""
    times, _ = va
    return _np.searchsorted(times, _np.asarray(ts, dtype=_np.float64),
                            side="right") - 1


def integral(va, start, end):
    """Window integral by the scalar float path's bisected segment scan.

    Contributions are accumulated in time order with sequential prefix
    sums (``cumsum``), reproducing ``total += rate * (e - s)`` loop
    bit-for-bit; zero-rate and zero-width segments are skipped before
    any arithmetic, exactly as the scalar loop ``continue``s past them
    (this also keeps ``0 * inf`` from minting a NaN).
    """
    times, rates = va
    n = len(times)
    lo = int(_np.searchsorted(times, start, side="right")) - 1
    if lo < 0:
        lo = 0
    hi = int(_np.searchsorted(times, end, side="left"))
    if hi <= lo:
        return 0
    seg_rates = rates[lo:hi]
    seg_starts = _np.maximum(times[lo:hi], start)
    seg_ends = _np.empty(hi - lo, dtype=_np.float64)
    seg_ends[:-1] = times[lo + 1:hi]
    seg_ends[-1] = times[hi] if hi < n else math.inf
    _np.minimum(seg_ends, end, out=seg_ends)
    mask = (seg_rates != 0.0) & (seg_ends > seg_starts)
    if not mask.any():
        return 0
    contributions = seg_rates[mask] * (seg_ends[mask] - seg_starts[mask])
    if len(contributions) == 1:
        return contributions[0].item()
    return _np.cumsum(contributions)[-1].item()


def sum_profiles(operands):
    """K-way pointwise sum: per-breaktime rates fold left-to-right over
    ``operands`` (list order), matching the scalar ``RateProfile.sum``
    accumulation — so float results cannot drift from the pairwise
    ``+``-fold definition."""
    times = operands[0][0]
    for tk, _ in operands[1:]:
        times = _np.union1d(times, tk)
    level = _np.zeros(len(times), dtype=_np.float64)
    for tk, rk in operands:
        level = level + _rates_at_times(tk, rk, times)
    return normalise_arrays(times, level)


def from_segments(segments: List[Tuple[float, float, float]]):
    """K-way constant-segment sum over ``(start, end, rate)`` triples.

    Breaktimes are the union of starts and finite ends; the rate at each
    breaktime folds left-to-right over the segment list, bit-identical
    to summing the equivalent ``constant()`` profiles."""
    starts = _np.array([s for s, _, _ in segments], dtype=_np.float64)
    ends = _np.array([e for _, e, _ in segments], dtype=_np.float64)
    times = _np.union1d(starts, ends[_np.isfinite(ends)])
    level = _np.zeros(len(times), dtype=_np.float64)
    for start, end, rate in segments:
        level = level + _np.where((times >= start) & (times < end),
                                  rate, 0.0)
    return normalise_arrays(times, level)
