"""Concurrent (multi-actor) accommodation (paper Section IV-B.3).

The paper reduces the concurrent question to a sequence of single-actor
questions: "Can the system accommodate one more actor computation when it
has already made commitments to the others?" — solved "step by step, by
trying to accommodate one more computation at a time".

:func:`find_concurrent_schedule` does exactly that: it admits the
components one at a time, subtracting each admitted schedule's claimed
consumption from availability before trying the next.  The admission
*order* matters; the default heuristic orders components by deadline then
by laxity (how tight the component is against availability), and
``exhaustive=True`` searches every admission order depth-first with
shared prefixes (each ordered prefix is scheduled once, and a component
failing against a prefix prunes every order extending it) — exact, but
worst-case factorial, so only sensible for small actor counts.

One-at-a-time admission is sound (an admitted set is executable: the
claimed consumptions are disjoint by construction) but not complete —
there are instances where only a cross-actor interleaving works.  The
completeness gap is measured in ``benchmarks/bench_theorem4_admission.py``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.computation.requirements import ComplexRequirement, ConcurrentRequirement
from repro.decision.schedule import ConcurrentSchedule, Schedule
from repro.decision.sequential import earliest_finish_time, find_schedule
from repro.resources.resource_set import ResourceSet

#: Safety bound for ``exhaustive=True``.
MAX_EXHAUSTIVE_COMPONENTS = 7


def _try_order(
    available: ResourceSet,
    components: Sequence[ComplexRequirement],
    align=None,
) -> Optional[ConcurrentSchedule]:
    remaining = available
    schedules: list[Schedule] = []
    for index, component in enumerate(components):
        if index:
            remaining = remaining - schedules[-1].consumption()
        schedule = find_schedule(remaining, component, align=align)
        if schedule is None:
            return None
        schedules.append(schedule)
    return ConcurrentSchedule(tuple(schedules))


def _search_orders(
    remaining: ResourceSet,
    components: Sequence[ComplexRequirement],
    placed: list[Schedule],
    align=None,
) -> Optional[ConcurrentSchedule]:
    """Depth-first search over admission orders with shared prefixes.

    Explores the same permutation tree as trying every order outright, in
    the same lexicographic order (so the first witness found is identical)
    — but each ordered prefix is scheduled once instead of once per
    permutation, and a component that fails against a prefix prunes every
    permutation extending it.
    """
    if not components:
        return ConcurrentSchedule(tuple(placed))
    for index, component in enumerate(components):
        schedule = find_schedule(remaining, component, align=align)
        if schedule is None:
            continue
        placed.append(schedule)
        found = _search_orders(
            remaining - schedule.consumption(),
            components[:index] + components[index + 1 :],
            placed,
            align,
        )
        if found is not None:
            return found
        placed.pop()
    return None


def _laxity_key(available: ResourceSet, component: ComplexRequirement):
    finish = earliest_finish_time(available, component)
    laxity = (
        float("inf") if finish is None else component.deadline - finish
    )
    return (component.deadline, laxity)


def find_concurrent_schedule(
    available: ResourceSet,
    requirement: ConcurrentRequirement,
    *,
    exhaustive: bool = False,
    align=None,
) -> Optional[ConcurrentSchedule]:
    """Witness for ``rho(Lambda, s, d)`` via one-at-a-time admission.

    With ``exhaustive=False`` (default) a single deadline/laxity order is
    tried; with ``exhaustive=True`` all component permutations are tried
    (capped at :data:`MAX_EXHAUSTIVE_COMPONENTS` components).
    """
    components = list(requirement.components)
    if exhaustive:
        if len(components) > MAX_EXHAUSTIVE_COMPONENTS:
            raise ValueError(
                f"exhaustive admission is limited to "
                f"{MAX_EXHAUSTIVE_COMPONENTS} components, got {len(components)}"
            )
        return _search_orders(available, tuple(components), [], align)
    if len(components) > 1:
        components.sort(key=lambda c: _laxity_key(available, c))
    return _try_order(available, components, align)


def is_feasible(
    available: ResourceSet,
    requirement: ConcurrentRequirement,
    *,
    exhaustive: bool = False,
    align=None,
) -> bool:
    """Concurrent accommodation as a predicate."""
    return (
        find_concurrent_schedule(
            available, requirement, exhaustive=exhaustive, align=align
        )
        is not None
    )
