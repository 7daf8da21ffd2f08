"""Simulation traces: an audit log of states, transitions, and notes.

Traces let tests and benchmarks assert not only final outcomes but also
*how* the system evolved: per-slice consumption and expiry, the moments
arrivals were admitted or rejected, aggregate accounting that must
balance, and — under fault injection — every capacity loss and promise
violation.

The conservation identity the trace supports is::

    offered = consumed + expired + revoked + degraded + crash-lost
              (+ capacity still ahead of the clock, mid-run)

:meth:`SimulationTrace.conservation_gaps` checks it both at run end (no
remaining capacity inside the horizon) and mid-run (remaining capacity
passed in), which is what lets the simulator use the auditor as a runtime
invariant checker.  The totals behind it are kept incrementally (see
:class:`_Ledger`), so a check costs the entries recorded since the
previous one plus the located types, not the whole trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.intervals.interval import Time
from repro.logic.transitions import Transition
from repro.resources.located_type import LocatedType

#: Causes a capacity loss can carry (anything else is a modelling bug).
#: The first three are *faults* — capacity the system believed in that
#: vanished.  ``"shed"`` is deliberate: capacity the admission front door
#: refused at the gate (e.g. joins from an enclave whose circuit breaker
#: is open, see :mod:`repro.service`) — never acquired, so never part of
#: any promise, but still offered and therefore still owed a leg in the
#: conservation identity: ``offered = consumed + expired + lost + shed``.
#: ``"lease-expired"`` is *conservative renunciation*: leased capacity an
#: enclave stops trusting because renewals could not cross a network
#: partition (see :mod:`repro.faults.netfaults`) — the enclave evicts
#: whatever relied on it and the identity gains its final leg:
#: ``offered = consumed + expired + lost + shed + lease-expired``.
LOSS_CAUSES = ("revocation", "crash", "degradation", "shed", "lease-expired")


def _check_cause(cause: str) -> None:
    """Reject cause strings outside the known event vocabulary."""
    if cause not in LOSS_CAUSES:
        raise ValueError(
            f"unknown loss cause {cause!r}; expected one of {LOSS_CAUSES}"
        )


@dataclass(frozen=True)
class TraceNote:
    """A timestamped free-form annotation (event outcomes etc.)."""

    time: Time
    message: str


@dataclass(frozen=True)
class ResourceLoss:
    """Capacity that vanished outside the declared model: one located
    type's quantity lost to one fault event."""

    time: Time
    cause: str  # one of LOSS_CAUSES
    ltype: LocatedType
    quantity: Time


@dataclass(frozen=True)
class PromiseViolation:
    """An admitted computation whose assurance died: at ``time`` the
    surviving resources can no longer cover its remaining demand within
    its window."""

    time: Time
    label: str
    cause: str  # the fault cause that triggered detection
    deadline: Time
    #: order-blind total demand still outstanding when detected
    remaining_total: Time


class _Ledger:
    """Per-located-type totals of consumption, expiry and loss, folded
    incrementally over a trace's append-only lists.

    Each query folds only the transitions and losses appended since the
    previous one, in list order, with the same ``totals.get(lt, 0) + q``
    step a from-scratch fold takes, so float totals are bit-identical to
    it and exact totals stay exact.  The ledger holds the lists it folded
    and how far: :meth:`tracks` tells whether that still describes the
    trace.
    """

    __slots__ = (
        "transitions", "losses", "folded_transitions", "folded_losses",
        "consumed", "expired", "lost", "lost_by_cause",
    )

    def __init__(self, transitions: list, losses: list) -> None:
        self.transitions = transitions
        self.losses = losses
        self.folded_transitions = 0
        self.folded_losses = 0
        self.consumed: Dict[LocatedType, Time] = {}
        self.expired: Dict[LocatedType, Time] = {}
        self.lost: Dict[LocatedType, Time] = {}
        self.lost_by_cause: Dict[str, Dict[LocatedType, Time]] = {}

    def tracks(self, transitions: list, losses: list) -> bool:
        return (
            transitions is self.transitions
            and losses is self.losses
            and len(transitions) >= self.folded_transitions
            and len(losses) >= self.folded_losses
        )

    def catch_up(self) -> None:
        transitions = self.transitions
        if self.folded_transitions < len(transitions):
            consumed, expired = self.consumed, self.expired
            for index in range(self.folded_transitions, len(transitions)):
                label = transitions[index].label
                for _, ltype, quantity in label.consumed:
                    consumed[ltype] = consumed.get(ltype, 0) + quantity
                for ltype, quantity in label.expired:
                    expired[ltype] = expired.get(ltype, 0) + quantity
            self.folded_transitions = len(transitions)
        losses = self.losses
        if self.folded_losses < len(losses):
            lost, by_cause = self.lost, self.lost_by_cause
            for index in range(self.folded_losses, len(losses)):
                loss = losses[index]
                ltype, quantity = loss.ltype, loss.quantity
                lost[ltype] = lost.get(ltype, 0) + quantity
                bucket = by_cause.setdefault(loss.cause, {})
                bucket[ltype] = bucket.get(ltype, 0) + quantity
            self.folded_losses = len(losses)


@dataclass
class SimulationTrace:
    """Ordered record of every timed transition plus annotations."""

    transitions: List[Transition] = field(default_factory=list)
    notes: List[TraceNote] = field(default_factory=list)
    losses: List[ResourceLoss] = field(default_factory=list)
    violations: List[PromiseViolation] = field(default_factory=list)

    #: Running totals behind the ``*_totals`` queries (see :class:`_Ledger`);
    #: a plain class attribute, not a field, so equality and ``repr``
    #: ignore it, and dropped from the pickled state.
    _ledger = None

    def record(self, transition: Transition) -> None:
        self.transitions.append(transition)

    def note(self, time: Time, message: str) -> None:
        self.notes.append(TraceNote(time, message))

    def record_loss(
        self, time: Time, cause: str, ltype: LocatedType, quantity: Time
    ) -> None:
        _check_cause(cause)
        self.losses.append(ResourceLoss(time, cause, ltype, quantity))

    def record_violation(self, violation: PromiseViolation) -> None:
        self.violations.append(violation)

    # ------------------------------------------------------------------
    @property
    def steps(self) -> int:
        return len(self.transitions)

    @property
    def violated_labels(self) -> Tuple[str, ...]:
        """Labels of every promise-violation victim, in detection order."""
        return tuple(v.label for v in self.violations)

    def violations_of(
        self, label: str, *, cause: str | None = None
    ) -> Tuple[PromiseViolation, ...]:
        """Violations recorded against ``label`` (empty tuple when the
        trace recorded none — including on an empty trace).

        ``cause`` restricts to violations triggered (at least in part) by
        one fault cause; it must name a known cause from
        :data:`LOSS_CAUSES`, otherwise :class:`ValueError` is raised — an
        unknown cause would silently return the same empty tuple as "never
        violated".
        """
        if cause is not None:
            _check_cause(cause)
        return tuple(
            v
            for v in self.violations
            if v.label == label
            and (cause is None or cause in v.cause.split("+"))
        )

    def _totals(self) -> "_Ledger":
        """The running totals, folded up to the lists' current ends.

        The ledger is rebuilt from scratch when ``transitions`` or
        ``losses`` was replaced by another list or got shorter (checkpoint
        restore swaps and extends them directly); otherwise only the
        entries appended since the last query are folded."""
        ledger = self._ledger
        if ledger is None or not ledger.tracks(self.transitions, self.losses):
            ledger = self._ledger = _Ledger(self.transitions, self.losses)
        ledger.catch_up()
        return ledger

    def __getstate__(self) -> dict:
        # The ledger is derived state: pickled traces (and so checkpoint
        # payloads) keep exactly the four list fields.
        state = self.__dict__.copy()
        state.pop("_ledger", None)
        return state

    def consumed_totals(self) -> Dict[LocatedType, Time]:
        """Total consumption per located type across the trace.

        Empty traces yield empty (zero-everywhere) totals, never an error.
        """
        return dict(self._totals().consumed)

    def expired_totals(self) -> Dict[LocatedType, Time]:
        """Total expired (unused) quantity per located type."""
        return dict(self._totals().expired)

    def lost_totals(self, cause: str | None = None) -> Dict[LocatedType, Time]:
        """Total capacity lost to faults per located type.

        ``cause`` restricts to one of :data:`LOSS_CAUSES` and is validated
        *before* the trace is consulted: an unknown cause raises
        :class:`ValueError` rather than returning an empty dict
        indistinguishable from "no losses".  With no cause, all losses
        aggregate (the ``+ revoked + crash-lost`` leg of the extended
        conservation identity).  An empty (or loss-free) trace yields
        empty, zero-everywhere totals, never an error.
        """
        if cause is not None:
            _check_cause(cause)
        ledger = self._totals()
        if cause is None:
            return dict(ledger.lost)
        return dict(ledger.lost_by_cause.get(cause, {}))

    def revoked_totals(self) -> Dict[LocatedType, Time]:
        return self.lost_totals("revocation")

    def crash_lost_totals(self) -> Dict[LocatedType, Time]:
        return self.lost_totals("crash")

    def shed_totals(self) -> Dict[LocatedType, Time]:
        """Capacity deliberately refused at the admission front door."""
        return self.lost_totals("shed")

    def lease_expired_totals(self) -> Dict[LocatedType, Time]:
        """Leased capacity conservatively renounced at lease expiry."""
        return self.lost_totals("lease-expired")

    def consumption_by_actor(self) -> Dict[str, Dict[LocatedType, Time]]:
        """Who consumed what, over the whole trace."""
        totals: Dict[str, Dict[LocatedType, Time]] = {}
        for transition in self.transitions:
            for actor, ltype, quantity in transition.label.consumed:
                bucket = totals.setdefault(actor, {})
                bucket[ltype] = bucket.get(ltype, 0) + quantity
        return totals

    # ------------------------------------------------------------------
    def conservation_gaps(
        self,
        offered: Mapping[LocatedType, Time],
        *,
        remaining: Optional[object] = None,  # ResourceSet, duck-typed
        remaining_window: Optional[object] = None,  # Interval
        include_losses: bool = True,
        tolerance: float = 1e-6,
    ) -> List[str]:
        """Extended conservation check, one message per imbalance.

        At run end: ``offered = consumed + expired (+ lost)`` per located
        type.  Mid-run, pass the live state's ``theta`` as ``remaining``
        and ``Interval(now, horizon)`` as ``remaining_window``: capacity
        still ahead of the clock has neither been consumed nor expired,
        and balances the identity at every instant.
        """
        ledger = self._totals()
        consumed, expired, all_lost = (
            ledger.consumed, ledger.expired, ledger.lost
        )
        lost = all_lost if include_losses else {}
        gaps: List[str] = []
        # Key discovery always includes loss-only types: a located type
        # that shows up *only* in loss records (never offered, consumed,
        # or expired) is itself an accounting anomaly and must surface in
        # the report — even when ``include_losses=False`` keeps losses
        # out of the balanced side, where 0 == 0 would otherwise let it
        # vanish silently.
        keys = set(offered) | set(consumed) | set(expired) | set(all_lost)
        for ltype in sorted(keys, key=str):
            accounted = (
                consumed.get(ltype, 0)
                + expired.get(ltype, 0)
                + lost.get(ltype, 0)
            )
            if remaining is not None and remaining_window is not None:
                accounted = accounted + remaining.quantity(
                    ltype, remaining_window
                )
            total = offered.get(ltype, 0)
            if abs(float(accounted) - float(total)) > tolerance:
                legs = "consumed+expired+lost"
                if "shed" in ledger.lost_by_cause:
                    # deliberate front-door refusals ride in the loss
                    # records; name the leg so the message matches the
                    # extended identity offered = c + e + lost + shed
                    legs += "+shed"
                if "lease-expired" in ledger.lost_by_cause:
                    # conservative lease renunciations ride there too;
                    # the full identity reads
                    # offered = c + e + lost + shed + lease-expired
                    legs += "+lease-expired"
                gaps.append(
                    f"conservation: {ltype} offered {total} but "
                    f"accounted ({legs}"
                    f"{'+remaining' if remaining is not None else ''}) "
                    f"= {accounted}"
                )
            elif (
                not include_losses
                and ltype not in offered
                and abs(float(all_lost.get(ltype, 0))) > tolerance
            ):
                gaps.append(
                    f"conservation: {ltype} lost "
                    f"{all_lost[ltype]} but was never offered"
                )
        return gaps

    def timeline(self) -> Iterator[Tuple[Time, str]]:
        """Merged, time-ordered view of notes and transition summaries."""
        entries: List[Tuple[Time, str]] = [
            (note.time, note.message) for note in self.notes
        ]
        entries.extend(
            (tr.source.t, str(tr.label)) for tr in self.transitions
        )
        entries.extend(
            (loss.time, f"lost to {loss.cause}: {loss.quantity} {loss.ltype}")
            for loss in self.losses
        )
        entries.extend(
            (v.time, f"promise violated: {v.label!r} ({v.cause})")
            for v in self.violations
        )
        return iter(sorted(entries, key=lambda item: item[0]))
