"""Chaos harness: perturb a run, then judge it by named oracles.

The paper's promise is that a computation admitted by the Theorem-4
check meets its deadline.  This module tests that promise under crashes,
overload and partitions with one cell runner, :func:`chaos_matrix`, fed
three inputs:

* **cells** (:class:`Cell`) — a zero-argument builder of a fresh run:
  a scheduled simulator plus its horizon (:func:`fault_cell`,
  :func:`mesh_cell`, the front door as a policy), or a ``serve(...)``
  run of the front door itself (:func:`overload_cells`);
* **a perturbation** — *replay* (run the cell twice and compare) or
  :class:`Kill` (kill the run at every ``stride``-th journal-record
  boundary, optionally torn mid-write, and during checkpoint saves; then
  resume it through :func:`resume_cell`, the one recovery path);
* **named oracles** — ``promise-safety`` (no admitted promise missed or
  left running; no promise broken by queueing), ``conservation``
  (``offered = consumed + expired + lost + shed``), ``identity``
  (:func:`report_fingerprint`, plus the network digest of a wire-carrying
  policy or a service's decision-log fingerprint) and each cell's
  ``vacuity`` guard (a cell that exercised nothing proves nothing).

Injection lives here too: :class:`CrashingFile` dies after a budgeted
number of writes, optionally leaving the torn tail ``kill -9`` leaves.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import FaultInjectionError, RotaError
from repro.faults.netfaults import (
    MeshPolicy,
    PartitionPlan,
    admitted_promise_violations,
    mesh_simulator,
    network_digest,
)
from repro.intervals.interval import Time
from repro.serialization import time_to_wire
from repro.service.config import ServiceConfig
from repro.service.driver import serve
from repro.service.policy import FrontDoorPolicy
from repro.service.report import ServiceReport
from repro.system.checkpoint import CheckpointStore, Journal
from repro.system.events import arrival, resource_join
from repro.system.simulator import OpenSystemSimulator, SimulationReport
from repro.workloads.overload import (
    flash_crowd_requests,
    stalled_enclave_stream,
)
from repro.workloads.scenarios import Scenario


class SimulatedCrash(RotaError, RuntimeError):
    """The injected process death.  Raised by :class:`CrashingFile`; the
    harness catches it where a supervisor would observe the exit."""


class CrashingFile:
    """File wrapper that crashes on the ``crash_at_write``-th write call.

    With ``partial_bytes`` set, that write first delivers a prefix of its
    payload (and flushes it, so the torn bytes truly reach the file) —
    modelling a crash mid-``write(2)``.  With ``partial_bytes=None`` the
    write delivers nothing: a clean record-boundary death.  Files sharing
    one ``writes`` counter share one budget: a process has one death,
    not one per file.
    """

    def __init__(
        self,
        handle: Any,
        *,
        crash_at_write: int,
        partial_bytes: Optional[int] = None,
        writes: Optional[List[int]] = None,
    ) -> None:
        if crash_at_write < 1:
            raise ValueError("crash_at_write counts writes from 1")
        self._handle = handle
        self._crash_at_write = crash_at_write
        self._partial_bytes = partial_bytes
        self._writes = [0] if writes is None else writes

    def write(self, data) -> int:
        self._writes[0] += 1
        if self._writes[0] == self._crash_at_write:
            if self._partial_bytes:
                self._handle.write(data[: self._partial_bytes])
                self._handle.flush()
            raise SimulatedCrash(
                f"simulated crash on write {self._writes[0]}"
                + (" (mid-write)" if self._partial_bytes else "")
            )
        return self._handle.write(data)

    def __getattr__(self, name: str):
        return getattr(self._handle, name)


def crashing_opener(
    *, crash_at_write: int, partial_bytes: Optional[int] = None
) -> Callable[..., CrashingFile]:
    """An ``open``-alike whose files share one write budget — inject into
    :class:`Journal` or :class:`CheckpointStore` to schedule the death."""
    writes = [0]

    def opener(path, mode="r"):
        return CrashingFile(
            open(path, mode),
            crash_at_write=crash_at_write,
            partial_bytes=partial_bytes,
            writes=writes,
        )

    return opener


class _CrashingCheckpointStore(CheckpointStore):
    """Checkpoint store whose ``crash_at_save``-th save dies mid-write,
    leaving a torn temp file and never surfacing the final name."""

    def __init__(self, directory, *, crash_at_save: int) -> None:
        super().__init__(directory)
        self._crash_at_save = crash_at_save
        self._saves = 0

    def save(self, checkpoint) -> Path:
        self._saves += 1
        if self._saves == self._crash_at_save:
            torn = self.path_for(checkpoint.step).with_suffix(".json.tmp")
            torn.write_text(checkpoint.to_json()[: 40])
            raise SimulatedCrash(
                f"simulated crash during checkpoint save {self._saves}"
            )
        return super().save(checkpoint)


# ----------------------------------------------------------------------
# Field-for-field report identity
# ----------------------------------------------------------------------

def report_fingerprint(report: SimulationReport) -> Dict[str, Any]:
    """A canonical value covering every field a report exposes.

    Two runs with equal fingerprints agree on every record (including
    violation instants, recovery attempts, and salvage accounting), every
    aggregate tally, and every trace entry down to per-slice consumption.
    """
    trace = report.trace
    return {
        "policy": report.policy_name,
        "horizon": time_to_wire(report.horizon),
        "records": [
            {
                "label": r.label,
                "arrival_time": time_to_wire(r.arrival_time),
                "window": (
                    time_to_wire(r.window.start),
                    time_to_wire(r.window.end),
                ),
                "total_demands": str(r.total_demands),
                "admitted": r.admitted,
                "rejection_reason": r.rejection_reason,
                "completed": r.completed,
                "finish_time": _optional_time(r.finish_time),
                "missed": r.missed,
                "violated_at": _optional_time(r.violated_at),
                "recovery_attempts": r.recovery_attempts,
                "recovered": r.recovered,
                "abandoned": r.abandoned,
                "salvaged": r.salvaged,
                "outcome": r.outcome,
            }
            for r in report.records
        ],
        "offered": _tally(report.offered),
        "consumed": _tally(report.consumed),
        "notes": [(time_to_wire(n.time), n.message) for n in trace.notes],
        "losses": [
            (time_to_wire(l.time), l.cause, str(l.ltype), float(l.quantity))
            for l in trace.losses
        ],
        "violations": [
            (
                time_to_wire(v.time),
                v.label,
                v.cause,
                time_to_wire(v.deadline),
                float(v.remaining_total),
            )
            for v in trace.violations
        ],
        "transitions": [
            (
                time_to_wire(tr.source.t),
                sorted(
                    (actor, str(ltype), float(q))
                    for actor, ltype, q in tr.label.consumed
                ),
                sorted(
                    (str(ltype), float(q)) for ltype, q in tr.label.expired
                ),
            )
            for tr in trace.transitions
        ],
    }


def _optional_time(value: Optional[Time]) -> Any:
    return None if value is None else time_to_wire(value)


def _tally(amounts) -> List[tuple]:
    return sorted((str(ltype), float(q)) for ltype, q in amounts.items())


def diff_fingerprints(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Human-readable field paths where two fingerprints disagree."""
    return [key for key in a if a[key] != b[key]]


# ----------------------------------------------------------------------
# Cells
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Cell:
    """One scenario of the matrix.

    With a ``horizon``, ``build()`` returns a fresh simulator with its
    events scheduled; without one, ``build()`` *is* the run and returns a
    :class:`~repro.service.report.ServiceReport`.  ``guard`` receives a
    finished run's report and policy and names why the cell proved
    nothing (or returns ``None``).
    """

    name: str
    build: Callable[[], Any]
    horizon: Optional[Time] = None
    guard: Callable[[Any, Any], Optional[str]] = lambda report, policy: None


def fault_cell(
    name: str,
    scenario: Scenario,
    simulator_factory: Callable[[], OpenSystemSimulator],
) -> Cell:
    """A scenario run on fresh simulators from ``simulator_factory``."""

    def build() -> OpenSystemSimulator:
        simulator = simulator_factory()
        simulator.schedule(*scenario.events)
        return simulator

    return Cell(name, build, scenario.horizon)


def mesh_cell(plan: PartitionPlan) -> Cell:
    """The plan's mesh run, named by the fields it changes."""
    changed = ", ".join(
        f"{f.name}={getattr(plan, f.name)!r}"
        for f in dataclasses.fields(plan)
        if getattr(plan, f.name) != f.default
    )

    def guard(report: SimulationReport, policy: MeshPolicy) -> Optional[str]:
        outlasted = plan.partition_duration > plan.lease_ttl and plan.severed
        if outlasted and not policy.leases.expired():
            return "partition outlasted the ttl but no lease expired"
        return None

    return Cell(
        f"mesh({changed})", lambda: mesh_simulator(plan), plan.horizon, guard
    )


def overload_cells(
    seed: int = 0, multipliers: Sequence[int] = (1, 2, 4, 10)
) -> List[Cell]:
    """One flash-crowd cell per multiplier, the stalled-enclave stream,
    and that stream through the simulator with the front door as its
    admission policy (per-slice extended conservation)."""
    if not multipliers or any(
        not isinstance(m, int) or m < 1 for m in multipliers
    ):
        raise FaultInjectionError(
            f"multipliers must be positive integers, got {multipliers!r}"
        )
    # Small queues so a 10x burst pressures them, and brownout engaging
    # well before the bound so the degraded path is exercised.
    config = ServiceConfig(
        max_queue=16, brownout_enter=8, brownout_exit=3, seed=seed
    )
    cells = [_flash_crowd(seed, m, config) for m in multipliers]

    def stalled() -> ServiceReport:
        resources, requests, joins, stalls = stalled_enclave_stream(seed)
        return serve(requests, resources=resources, joins=joins,
                     config=config, stalls=stalls)

    def front_door() -> OpenSystemSimulator:
        resources, requests, joins, stalls = stalled_enclave_stream(seed)
        simulator = OpenSystemSimulator(
            FrontDoorPolicy(
                config=ServiceConfig(breaker_failures=2, seed=seed),
                stalls=stalls,
                verify_brownout=True,
            ),
            initial_resources=resources,
            invariant_interval=1,
        )
        simulator.schedule(
            *(arrival(r.arrival, r.requirement, label=r.label)
              for r in requests),
            *(resource_join(at, joining) for at, joining in joins),
        )
        return simulator

    cells.append(Cell(
        f"stalled-enclave(seed={seed})",
        stalled,
        guard=lambda report, _: None if report.breaker_transitions
        else "stall never tripped a breaker (plan too gentle)",
    ))
    cells.append(Cell(
        f"front-door(seed={seed})",
        front_door,
        horizon=60,
        guard=lambda report, _: None if report.trace.shed_totals()
        else "no capacity was shed (breaker never walled a join)",
    ))
    return cells


def _flash_crowd(seed: int, multiplier: int, config: ServiceConfig) -> Cell:
    def run() -> ServiceReport:
        resources, requests = flash_crowd_requests(seed, multiplier=multiplier)
        return serve(requests, resources=resources, config=config)

    def guard(report: ServiceReport, _) -> Optional[str]:
        if not report.goodput:
            return "the crowd admitted nothing"
        if multiplier >= 10 and not report.shed:  # a crowd that must overflow
            return f"a {multiplier}x crowd shed nothing (door never full)"
        return None

    return Cell(f"flash-crowd(seed={seed}, x={multiplier})", run, guard=guard)


# ----------------------------------------------------------------------
# One run, and the oracles that judge it
# ----------------------------------------------------------------------

@dataclass
class Outcome:
    """A finished run (uninterrupted, or resumed after a kill)."""

    report: Any  # SimulationReport, or ServiceReport for a service cell
    policy: Any = None
    resumed_from: str = ""  # "checkpoint", "fresh", or "" (never killed)
    replayed: int = 0  # journal records the resume re-verified

    @cached_property
    def identity(self) -> Dict[str, Any]:
        if isinstance(self.report, ServiceReport):
            return {"decision_log": self.report.fingerprint}
        identity: Dict[str, Any] = {
            "fingerprint": report_fingerprint(self.report)
        }
        if isinstance(self.policy, MeshPolicy):
            identity["network"] = network_digest(self.policy)
        return identity

    def divergence(self, reference: "Outcome") -> str:
        """Why this run is not field-identical to ``reference`` ('' if it is)."""
        ours, theirs = self.identity, reference.identity
        if ours.get("fingerprint") != theirs.get("fingerprint"):
            return "diverged fields: " + ", ".join(
                diff_fingerprints(theirs["fingerprint"], ours["fingerprint"])
            )
        if ours != theirs:
            return "network digests or decision logs diverge"
        return ""


def _run(cell: Cell) -> Outcome:
    built = cell.build()
    if cell.horizon is None:
        return Outcome(built)
    return Outcome(built.run(cell.horizon), built.admission_policy)


def _judge(cell: Cell, outcome: Outcome, reference: Outcome) -> List[Tuple[str, str]]:
    """Every named oracle's complaint about ``outcome``."""
    report = outcome.report
    if isinstance(report, ServiceReport):
        broken, gaps = report.queueing_violations(), []
    else:
        broken = admitted_promise_violations(report)
        gaps = report.trace.conservation_gaps(report.offered)
    complaints = [
        ("promise-safety", ", ".join(broken)),
        ("conservation", "; ".join(gaps)),
        ("identity", outcome.divergence(reference)),
        ("vacuity", cell.guard(report, outcome.policy) or ""),
    ]
    return [(name, detail) for name, detail in complaints if detail]


# ----------------------------------------------------------------------
# Points and results
# ----------------------------------------------------------------------

@dataclass
class ChaosPoint:
    """One perturbed run of one cell, and the oracles it failed."""

    cell: str
    kind: str  # "replay" | "boundary" | "mid-write" | "checkpoint"
    index: int  # journal write or checkpoint save the kill landed on
    crashed: bool = False  # False for replays and outlived kill budgets
    resumed_from: str = ""
    replayed: int = 0  # journal records the resume re-verified
    #: the journal record the kill lost (boundary and mid-write kills)
    torn: Optional[dict] = None
    fingerprint: Optional[str] = None  # sha256 of the report fingerprint
    network: Optional[str] = None
    decision_log: Optional[str] = None
    failures: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class ChaosResult:
    """Every point of one matrix."""

    points: List[ChaosPoint] = field(default_factory=list)

    @property
    def failures(self) -> List[ChaosPoint]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return bool(self.points) and not self.failures

    def summary(self) -> str:
        crashed = sum(1 for p in self.points if p.crashed)
        return "\n".join([
            f"{len(self.points)} points ({crashed} crashed), "
            f"{len(self.failures)} failures",
            *(f"  {p.cell} {p.kind}@{p.index}: {p.failures}"
              for p in self.failures),
        ])


def _point(
    cell: Cell, kind: str, index: int, outcome: Outcome, reference: Outcome
) -> ChaosPoint:
    identity = outcome.identity
    fingerprint = identity.get("fingerprint")
    return ChaosPoint(
        cell=cell.name,
        kind=kind,
        index=index,
        resumed_from=outcome.resumed_from,
        replayed=outcome.replayed,
        fingerprint=None if fingerprint is None else hashlib.sha256(
            json.dumps(
                fingerprint, sort_keys=True, separators=(",", ":")
            ).encode()
        ).hexdigest(),
        network=identity.get("network"),
        decision_log=identity.get("decision_log"),
        failures=_judge(cell, outcome, reference),
    )


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

JOURNAL = "journal.jsonl"


@dataclass(frozen=True)
class Kill:
    """The kill perturbation: deaths at every ``stride``-th journal write
    (plus a torn mid-write twin of each when ``mid_write``) and at
    checkpoint saves 2 .. ``saves`` + 1, resumed under ``workdir``."""

    workdir: Union[str, Path]
    stride: int = 1
    mid_write: bool = True
    checkpoint_every: int = 4
    saves: int = 0

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise FaultInjectionError(f"stride must be >= 1, got {self.stride!r}")


def chaos_matrix(
    cells: Sequence[Cell], kill: Optional[Kill] = None
) -> ChaosResult:
    """Run every cell under one perturbation and judge every run.

    Without ``kill`` each cell is replayed: run twice, the first run
    judged against the second.  With it each simulator cell runs
    uninterrupted (the truth), once journaled and checkpointed (which
    must change nothing), then once per scheduled death, each resumed
    through :func:`resume_cell` and judged against the truth.
    """
    result = ChaosResult()
    for cell in cells:
        if kill is None:
            result.points.append(
                _point(cell, "replay", 0, _run(cell), _run(cell))
            )
        else:
            result.points.extend(_kill_points(cell, kill))
    return result


def _kill_points(cell: Cell, kill: Kill) -> List[ChaosPoint]:
    if cell.horizon is None:
        raise FaultInjectionError(
            f"cell {cell.name!r} is a service run: it can only be replayed"
        )
    celldir = Path(kill.workdir) / cell.name
    truth = _run(cell)
    basedir = celldir / "baseline"
    journaled = kill_cell(cell, basedir, checkpoint_every=kill.checkpoint_every)
    altered = journaled.divergence(truth)
    if altered:
        raise FaultInjectionError(f"journaling altered the run itself: {altered}")
    records, _ = Journal.scan(basedir / JOURNAL)
    deaths: List[Tuple[str, int, dict]] = []
    for write in range(1, len(records) + 1, kill.stride):
        deaths.append(("boundary", write, {"write": write}))
        if kill.mid_write:
            deaths.append(("mid-write", write, {"write": write, "torn": True}))
    for save in range(2, 2 + kill.saves):
        deaths.append(("checkpoint", save, {"save": save}))

    points = []
    for kind, index, death in deaths:
        pointdir = celldir / f"{kind}-{index:04d}"
        outcome = kill_cell(
            cell, pointdir, checkpoint_every=kill.checkpoint_every, **death
        )
        crashed = outcome is None
        if crashed:
            outcome = resume_cell(cell, pointdir)
        point = _point(cell, kind, index, outcome, truth)
        point.crashed = crashed
        if "write" in death:
            point.torn = records[index - 1]
        points.append(point)
    return points


def kill_cell(
    cell: Cell,
    pointdir: Union[str, Path],
    *,
    checkpoint_every: int,
    write: Optional[int] = None,
    torn: bool = False,
    save: Optional[int] = None,
) -> Optional[Outcome]:
    """Run ``cell`` journaled and checkpointed under ``pointdir``, dying
    on journal write ``write`` (torn mid-write when ``torn``) or during
    checkpoint save ``save``.  Returns ``None`` when the death landed,
    the finished run when the run outlived its budget."""
    pointdir = Path(pointdir)
    pointdir.mkdir(parents=True, exist_ok=True)
    opener = open if write is None else crashing_opener(
        crash_at_write=write, partial_bytes=17 if torn else None
    )
    journal = Journal(pointdir / JOURNAL, opener=opener)
    store = _CrashingCheckpointStore(pointdir, crash_at_save=save or 0)
    simulator = cell.build()
    try:
        report = simulator.run(
            cell.horizon,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=store,
            journal=journal,
        )
    except SimulatedCrash:
        return None
    finally:
        journal.close()
    return Outcome(report, simulator.admission_policy)


def resume_cell(cell: Cell, pointdir: Union[str, Path]) -> Outcome:
    """Recover a killed run from the artifacts under ``pointdir`` through
    :meth:`OpenSystemSimulator.resume_latest` — the newest usable
    checkpoint plus the journal suffix, re-verified record by record —
    or, when no checkpoint became durable, by a fresh rerun."""
    simulator = OpenSystemSimulator.resume_latest(pointdir)
    if simulator is None:
        outcome = _run(cell)
        outcome.resumed_from = "fresh"
        return outcome
    report = simulator.resume_run()
    return Outcome(
        report,
        simulator.admission_policy,
        resumed_from="checkpoint",
        replayed=simulator._replay_pos,
    )
